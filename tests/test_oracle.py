import tracemalloc

import numpy as np
import pytest

from exec_solver import (
    ExponentialKernel,
    FractionalKernel,
    BoundedPowerLawKernel,
    InputError,
    ModelError,
    NumericError,
    OUSignal,
    ScenarioParams,
    StrategyPath,
    TabulatedKernel,
    TimeGrid,
    ZeroKernel,
    ZeroSignal,
    assemble_qp,
    evaluate_objective,
    integrated_increments,
    mc_objective,
    nystrom_rule,
    perturbation_test,
    rollout,
    solve_qp,
    solve_scenario,
    twap_rule,
)
import exec_solver.kernels as kernels_mod
import exec_solver.nystrom as nystrom_mod
import exec_solver.oracle as oracle_mod
import exec_solver.signals as signals_mod
from conftest import expected_ou_objective
from exec_solver.oracle import hat_direction
from exec_solver.signals import price_path, simulate_signal


CHUNK = oracle_mod._CHUNK


def make_rule(strategy, params, kernel, signal, grid):
    if strategy == "nystrom":
        return nystrom_rule(params, kernel, signal, grid)
    return twap_rule(params, grid)


def deterministic_price(signal, grid):
    return price_path(simulate_signal(signal, grid, seed=0), grid)


class TestAssembleQP:
    def test_reproduces_breakdown_on_random_speeds(self, rng):
        # full generality: transient kernel, h0, running penalty, signal
        params = ScenarioParams(q=10, T=10, lam=0.5, varrho=4, phi=0.3, h0=1.5)
        grid = TimeGrid.uniform(10, 24)
        kernel = ExponentialKernel(1.0, 0.5)
        sig = OUSignal(I0=2.0, gamma=0.3, sigma=0.5)
        P = price_path(simulate_signal(sig, grid, seed=42), grid)
        inc = integrated_increments(kernel, params, grid)
        qp = assemble_qp(params, inc, grid, P)
        for _ in range(100):
            u = rng.normal(size=25) * 3
            want = evaluate_objective(rollout(u, params, grid, kernel), params, grid, P).total
            assert qp.value(u) == pytest.approx(want, rel=1e-9, abs=1e-9 * (1 + abs(want)))

    def test_no_transient_hand_expansion(self):
        # G = 0, phi = 0, P = 0: H = -2 lam dt I - 2 varrho dt^2,
        # b = 2 varrho q dt, c0 = -varrho q^2 on the active block
        params = ScenarioParams(q=10, T=10, lam=0.5, varrho=4)
        grid = TimeGrid.uniform(10, 8)
        dt = grid.dt
        inc = integrated_increments(ZeroKernel(), params, grid)
        qp = assemble_qp(params, inc, grid, np.zeros(9))
        Ha, ba = qp.active()
        want_H = -2 * 0.5 * dt * np.eye(8) - 2 * 4.0 * dt**2 * np.ones((8, 8))
        assert np.allclose(Ha, want_H, rtol=1e-14, atol=1e-14)
        assert np.allclose(ba, 2 * 4.0 * 10.0 * dt, rtol=1e-14)
        assert qp.c0 == -400.0
        assert np.all(qp.H[8, :] == 0.0) and np.all(qp.H[:, 8] == 0.0)
        assert qp.b[8] == 0.0

    def test_value_at_zero_is_constant_term(self, fig1_params):
        grid = TimeGrid.uniform(10, 8)
        inc = integrated_increments(ZeroKernel(), fig1_params, grid)
        qp = assemble_qp(fig1_params, inc, grid, np.zeros(9))
        assert qp.value(np.zeros(9)) == qp.c0

    def test_sign_flip_symmetry(self, fig1_params, rng):
        grid = TimeGrid.uniform(10, 16)
        inc = integrated_increments(ExponentialKernel(1, 0.5), fig1_params, grid)
        qp = assemble_qp(fig1_params, inc, grid, rng.normal(size=17))
        u = rng.normal(size=17)
        quad_plus_const = 0.5 * u @ qp.H @ u + qp.c0
        assert qp.value(u) + qp.value(-u) == pytest.approx(2 * quad_plus_const, rel=1e-12)

    def test_non_admissible_kernel_raises(self):
        grid = TimeGrid.uniform(10.0, 64)
        kernel = TabulatedKernel.from_grid_values(grid, -np.ones(65))
        params = ScenarioParams(q=10, T=10, lam=0.01, varrho=0)
        inc = integrated_increments(kernel, params, grid)
        with pytest.raises(ModelError):
            assemble_qp(params, inc, grid, np.zeros(65))

    @pytest.mark.parametrize("n", [16, 64, 256])
    def test_hessian_negative_definite_for_bounded_kernels(self, fig1_params, n):
        kernels = [ZeroKernel(), ExponentialKernel(1, 0.5), BoundedPowerLawKernel(1.0, 1.0)]
        grid = TimeGrid.uniform(10.0, n)
        for kernel in kernels:
            inc = integrated_increments(kernel, fig1_params, grid)
            qp = assemble_qp(fig1_params, inc, grid, np.zeros(n + 1))
            Ha, _ = qp.active()
            top = np.linalg.eigvalsh(0.5 * (Ha + Ha.T))[-1]
            assert top < 0.0, (type(kernel).__name__, n, top)

    @pytest.mark.parametrize("n", [64, 256])
    def test_hessian_negative_definite_fractional_fine_grids(self, fig1_params, n):
        grid = TimeGrid.uniform(10.0, n)
        inc = integrated_increments(FractionalKernel(1, 0.55), fig1_params, grid)
        qp = assemble_qp(fig1_params, inc, grid, np.zeros(n + 1))
        Ha, _ = qp.active()
        assert np.linalg.eigvalsh(0.5 * (Ha + Ha.T))[-1] < 0.0

    def test_fractional_coarse_grid_loses_concavity(self, fig1_params):
        # the strictly-causal transient form carries no diagonal mass, and
        # for a singular kernel that mass shrinks only like dt^alpha: on a
        # coarse grid the temporary-impact floor cannot cover it
        grid = TimeGrid.uniform(10.0, 16)
        inc = integrated_increments(FractionalKernel(1, 0.55), fig1_params, grid)
        with pytest.raises(ModelError):
            assemble_qp(fig1_params, inc, grid, np.zeros(17))


class TestSolveQP:
    def test_constant_rate_closed_form(self, fig1_params):
        grid = TimeGrid.uniform(10, 200)
        inc = integrated_increments(ZeroKernel(), fig1_params, grid)
        qp = assemble_qp(fig1_params, inc, grid, np.zeros(201))
        u = solve_qp(qp)
        assert np.max(np.abs(u - 80.0 / 81.0)) <= 1e-10

    def test_zero_linear_term_gives_zero(self):
        # q = 0, no signal, no distortion: nothing to trade
        params = ScenarioParams(q=0.0, T=10, lam=0.5, varrho=4)
        grid = TimeGrid.uniform(10, 16)
        inc = integrated_increments(ExponentialKernel(1, 0.5), params, grid)
        qp = assemble_qp(params, inc, grid, np.zeros(17))
        assert np.all(solve_qp(qp) == 0.0)

    def test_large_running_penalty_boundary_layer(self):
        # phi huge: the inventory collapses within the first grid cells
        params = ScenarioParams(q=10, T=10, lam=0.5, varrho=0, phi=1e6)
        grid = TimeGrid.uniform(10, 64)
        inc = integrated_increments(ZeroKernel(), params, grid)
        u = solve_qp(assemble_qp(params, inc, grid, np.zeros(65)))
        Q = rollout(u, params, grid, ZeroKernel()).Q
        assert np.max(np.abs(Q[2:])) <= 1e-3 * params.q

    def test_terminal_entry_feedback_identity(self, fig1_params):
        grid = TimeGrid.uniform(10, 32)
        kernel = ExponentialKernel(1, 0.5)
        sig = OUSignal(I0=2.0, gamma=0.3, sigma=0.0)
        inc = integrated_increments(kernel, fig1_params, grid)
        u = solve_qp(assemble_qp(fig1_params, inc, grid, deterministic_price(sig, grid)))
        sp = rollout(u, fig1_params, grid, kernel)
        want = (2 * 4.0 * sp.Q[-1] - sp.Z[-1]) / (2 * 0.5)
        assert u[-1] == pytest.approx(want, rel=1e-12)

    def test_first_order_condition_residual(self, fig1_params, rng):
        grid = TimeGrid.uniform(10, 128)
        inc = integrated_increments(FractionalKernel(1, 0.55), fig1_params, grid)
        qp = assemble_qp(fig1_params, inc, grid, rng.normal(size=129))
        u = solve_qp(qp)
        Ha, ba = qp.active()
        assert np.linalg.norm(Ha @ u[:128] + ba) <= 1e-8 * np.linalg.norm(ba)


class TestOracleAgainstGridSolver:
    def test_convergence_toward_each_other(self, fig1_params):
        kernel = ExponentialKernel(1, 0.5)
        sig = OUSignal(I0=2.0, gamma=0.3, sigma=0.0)
        gaps = []
        for n in (32, 64, 128):
            grid = TimeGrid.uniform(10, n)
            u_grid = solve_scenario(fig1_params, kernel, sig, grid).u
            inc = integrated_increments(kernel, fig1_params, grid)
            u_qp = solve_qp(assemble_qp(fig1_params, inc, grid,
                                        deterministic_price(sig, grid)))
            gaps.append(np.max(np.abs(u_grid - u_qp)) / np.max(np.abs(u_qp)))
        assert gaps[0] > gaps[1] > gaps[2]

    def test_agree_exactly_without_transient_impact(self, fig1_params):
        # both discretizations solve the same finite problem when G = 0
        grid = TimeGrid.uniform(10, 40)
        u_grid = solve_scenario(fig1_params, ZeroKernel(), ZeroSignal(), grid).u
        inc = integrated_increments(ZeroKernel(), fig1_params, grid)
        u_qp = solve_qp(assemble_qp(fig1_params, inc, grid, np.zeros(41)))
        assert np.allclose(u_grid, u_qp, rtol=1e-10, atol=1e-12)


class TestMonteCarlo:
    def test_zero_strategy_mean_exact(self):
        params = ScenarioParams(q=10, T=10, lam=0.5, varrho=4, phi=1)
        grid = TimeGrid.uniform(10, 16)
        est = mc_objective(params, ZeroKernel(), grid, lambda path: np.zeros(17),
                           np.zeros((5, 17)))
        assert est.mean == -1400.0  # varrho q^2 + phi q^2 T
        assert est.stderr == 0.0

    def test_deterministic_rule_zero_signal_matches_pathwise(self, fig1_params):
        grid = TimeGrid.uniform(10, 16)
        kernel = ExponentialKernel(1, 0.5)
        est = mc_objective(fig1_params, kernel, grid, twap_rule(fig1_params, grid),
                           np.zeros((3, 17)))
        sp = rollout(np.full(17, 1.0), fig1_params, grid, kernel)
        want = evaluate_objective(sp, fig1_params, grid, np.zeros(17)).total
        assert est.stderr == 0.0
        assert est.mean == pytest.approx(want, rel=1e-12)

    def test_samples_match_pathwise_objective(self, frac_kernel):
        # at n = 24 and at the minimum grid, n = 2
        params = ScenarioParams(q=10, T=10, lam=0.5, varrho=4, h0=0.7)
        sig = OUSignal(I0=2.0, gamma=0.3, sigma=0.5)
        for n in (24, 2):
            grid = TimeGrid.uniform(10, n)
            rule = nystrom_rule(params, frac_kernel, sig, grid)
            paths = simulate_signal(sig, grid, 3, n_paths=20)
            est = mc_objective(params, frac_kernel, grid, rule, paths)
            for sample, path in zip(est.samples, paths):
                sp = rollout(rule(path), params, grid, frac_kernel, signal_values=path)
                bd = evaluate_objective(sp, params, grid, price_path(path, grid))
                scale = (abs(bd.revenue) + bd.temporary_cost + abs(bd.transient_cost)
                         + bd.terminal_penalty)
                assert sample == pytest.approx(bd.total, rel=0, abs=1e-13 * scale)

    @pytest.mark.parametrize("n", [16, 32])
    @pytest.mark.parametrize("strategy", ["nystrom", "twap"])
    def test_mean_agrees_with_the_exact_expected_objective(self, exp_kernel, strategy, n):
        # 2000 paths at each of ten seeds fixed in advance: every estimate
        # lies within 4 standard errors of the exact mean, and with sigma = 0
        # the 2000 equal samples average to the reference. Fast, strong
        # mean reversion: a transition variance of sigma^2 dt in place of the
        # exact one moves the nystrom mean at n = 16 by about 7.5 standard
        # errors
        params = ScenarioParams(q=10, T=10, lam=0.5, varrho=4)
        grid = TimeGrid.uniform(10.0, n)
        signal = OUSignal(I0=2.0, gamma=2.0, sigma=2.0)
        rule = make_rule(strategy, params, exp_kernel, signal, grid)
        want = expected_ou_objective(params, exp_kernel, grid, signal, rule)
        for seed in range(3571, 3581):
            est = mc_objective(params, exp_kernel, grid, rule,
                               simulate_signal(signal, grid, seed, n_paths=2000))
            assert abs(est.mean - want) <= 4.0 * est.stderr, (seed, est.mean, want)
        flat = OUSignal(I0=2.0, gamma=2.0, sigma=0.0)
        rule = make_rule(strategy, params, exp_kernel, flat, grid)
        want = expected_ou_objective(params, exp_kernel, grid, flat, rule)
        est = mc_objective(params, exp_kernel, grid, rule,
                           simulate_signal(flat, grid, 0, n_paths=2000))
        assert est.mean == pytest.approx(want, rel=1e-13, abs=0)

    @pytest.mark.parametrize("shape", [(0, 17), (4, 16), (4, 18), (17,), (2, 4, 17)],
                             ids=str)
    def test_paths_shape_checked_before_the_increments(self, fig1_params, exp_kernel,
                                                       monkeypatch, shape):
        # the path count and seed are simulate_signal's to check
        # (TestSimulation::test_path_count_validation and ::test_seed_validation)
        def unreachable(*args):
            raise AssertionError("built increments for paths of the wrong shape")

        monkeypatch.setattr(oracle_mod, "integrated_increments", unreachable)
        grid = TimeGrid.uniform(10, 16)
        with pytest.raises(InputError, match=r"signal paths have shape .*\(paths, 17\)"):
            mc_objective(fig1_params, exp_kernel, grid, twap_rule(fig1_params, grid),
                         np.zeros(shape))

    def test_rule_with_wrong_length_rejected(self, fig1_params, exp_kernel):
        grid = TimeGrid.uniform(10, 16)
        with pytest.raises(InputError, match="shape"):
            mc_objective(fig1_params, exp_kernel, grid, lambda path: np.ones(16),
                         np.zeros((3, 17)))

    @pytest.mark.parametrize("strategy", ["nystrom", "twap"])
    def test_samples_equal_a_stacked_reference(self, fig1_params, exp_kernel, strategy):
        # the batch written row by row into one array, against the speeds
        # stacked from a list and the allocating batch expressions
        grid = TimeGrid.uniform(10, 40)
        sig = OUSignal(I0=2.0, gamma=0.3, sigma=0.5)
        rule = make_rule(strategy, fig1_params, exp_kernel, sig, grid)
        paths = simulate_signal(sig, grid, 8, n_paths=30)
        est = mc_objective(fig1_params, exp_kernel, grid, rule, paths)
        us = np.stack([rule(p) for p in paths])
        steps = np.empty(us.shape)
        steps[:, 0] = fig1_params.q
        steps[:, 1:] = us[:, :-1] * grid.dt
        LG = integrated_increments(exp_kernel, fig1_params, grid).LG
        path = StrategyPath(u=us, Q=np.subtract.accumulate(steps, axis=-1),
                            Z=fig1_params.h0_values(grid) + us @ LG.T, I=paths)
        prices = np.concatenate([np.zeros((30, 1)),
                                 np.cumsum(paths[:, :-1], axis=-1) * grid.dt], axis=-1)
        want = evaluate_objective(path, fig1_params, grid, prices).total
        assert est.samples.tobytes() == want.tobytes()

    @pytest.mark.parametrize("strategy", ["nystrom", "twap"])
    @pytest.mark.parametrize("n_paths", [1, CHUNK - 1, CHUNK, CHUNK + 1, 2 * CHUNK + 1])
    def test_chunked_samples_match_the_whole_batch(self, fig1_params, exp_kernel,
                                                   strategy, n_paths):
        # up to CHUNK paths run as one chunk, through the very calls of the
        # whole batch, so the samples are equal. More paths end in a
        # one-path chunk, whose distortion product BLAS may sum in another
        # order than the same row of the whole batch
        grid = TimeGrid.uniform(10, 200)
        sig = OUSignal(I0=2.0, gamma=0.3, sigma=0.5)
        rule = make_rule(strategy, fig1_params, exp_kernel, sig, grid)
        paths = simulate_signal(sig, grid, 9, n_paths=n_paths)
        est = mc_objective(fig1_params, exp_kernel, grid, rule, paths)
        whole = rollout(np.stack([rule(p) for p in paths]), fig1_params, grid, exp_kernel,
                        signal_values=paths)
        want = evaluate_objective(whole, fig1_params, grid, price_path(paths, grid)).total
        if n_paths <= CHUNK:
            assert est.samples.tobytes() == want.tobytes()
        else:
            assert np.all(np.abs(est.samples - want) <= 1e-13 * np.abs(want))

    def test_rule_sees_every_path_once_in_order(self, fig1_params, exp_kernel):
        # common random numbers: the k-th call gets the k-th given path
        grid = TimeGrid.uniform(10, 16)
        sig = OUSignal(I0=2.0, gamma=0.3, sigma=0.5)
        seen = []

        def rule(path):
            seen.append(path.copy())
            return np.ones(17)

        paths = simulate_signal(sig, grid, 6, n_paths=2 * CHUNK + 1)
        mc_objective(fig1_params, exp_kernel, grid, rule, paths)
        assert np.array_equal(np.array(seen), paths)

    def test_wrong_shape_in_a_later_chunk_rejected(self, fig1_params, exp_kernel):
        grid = TimeGrid.uniform(10, 16)
        calls = []

        def rule(path):
            calls.append(None)
            return np.ones(16 if len(calls) == CHUNK + 2 else 17)

        with pytest.raises(InputError, match=r"shape \(16,\), expected \(17,\)"):
            mc_objective(fig1_params, exp_kernel, grid, rule, np.zeros((2 * CHUNK, 17)))
        assert len(calls) == CHUNK + 2

    def test_builds_the_increments_once_for_all_chunks(self, fig1_params, exp_kernel,
                                                       monkeypatch):
        grid = TimeGrid.uniform(10, 16)
        sig = OUSignal(I0=2.0, gamma=0.3, sigma=0.5)
        rule = nystrom_rule(fig1_params, exp_kernel, sig, grid)
        paths = simulate_signal(sig, grid, 1, n_paths=3 * CHUNK + 5)
        built = []

        def counted(*args):
            built.append(None)
            return integrated_increments(*args)

        for module in (kernels_mod, nystrom_mod, oracle_mod):
            monkeypatch.setattr(module, "integrated_increments", counted)
        mc_objective(fig1_params, exp_kernel, grid, rule, paths)
        assert len(built) == 1

    @pytest.mark.parametrize("strategy", ["nystrom", "twap"])
    def test_overflow_raises_numeric_error(self, fig1_params, exp_kernel, strategy):
        # finite inputs whose objective overflows, with numpy's warnings as
        # errors (pytest's filter): the finiteness checks must raise first
        grid = TimeGrid.uniform(10, 48)
        sig = OUSignal(I0=2.0, gamma=0.3, sigma=1e300)
        rule = make_rule(strategy, fig1_params, exp_kernel, sig, grid)
        with pytest.raises(NumericError, match="non-finite"):
            mc_objective(fig1_params, exp_kernel, grid, rule,
                         simulate_signal(sig, grid, 11, n_paths=4))

    def test_peak_memory_is_one_path_batch_and_one_chunk(self, fig1_params, exp_kernel):
        # a simulation and an estimate, as in a CLI mc run: the signal paths
        # span every path; one chunk's speeds, inventory, distortion and
        # prices are held at a time. The allowance covers the per-path
        # forecast matrix, LG, numpy's ufunc buffers, one more chunk-sized
        # temporary and per-path scalars. A first call imports modules
        # lazily, about 0.7 MB, so one small call runs untraced first
        n, n_paths = 100, 1000
        grid = TimeGrid.uniform(10, n)
        sig = OUSignal(I0=2.0, gamma=0.3, sigma=0.5)
        batch = n_paths * (n + 1) * 8
        chunk = CHUNK * (n + 1) * 8
        for rule in (nystrom_rule(fig1_params, exp_kernel, sig, grid),
                     twap_rule(fig1_params, grid)):
            mc_objective(fig1_params, exp_kernel, grid, rule,
                         simulate_signal(sig, grid, 2, n_paths=2))
            tracemalloc.start()
            try:
                mc_objective(fig1_params, exp_kernel, grid, rule,
                             simulate_signal(sig, grid, 2, n_paths=n_paths))
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak <= batch + 5 * chunk + 4 * (n + 1) ** 2 * 8

    def test_seed_determinism(self, fig1_params):
        # an estimate depends on its paths only, which depend on the seed
        grid = TimeGrid.uniform(10, 16)
        kernel = ExponentialKernel(1, 0.5)
        sig = OUSignal(I0=2.0, gamma=0.3, sigma=0.5)
        rule = twap_rule(fig1_params, grid)
        paths = simulate_signal(sig, grid, 4, n_paths=50)
        a = mc_objective(fig1_params, kernel, grid, rule, paths)
        b = mc_objective(fig1_params, kernel, grid, rule, paths)
        assert np.array_equal(a.samples, b.samples)
        c = mc_objective(fig1_params, kernel, grid, rule,
                         simulate_signal(sig, grid, 5, n_paths=50))
        assert not np.array_equal(a.samples, c.samples)

    def test_signal_adaptive_beats_twap(self, fig1_params):
        # common random numbers: paired difference within 2 standard errors
        grid = TimeGrid.uniform(10, 64)
        kernel = ExponentialKernel(1, 0.5)
        sig = OUSignal(I0=2.0, gamma=0.3, sigma=0.5)
        paths = simulate_signal(sig, grid, 17, n_paths=300)
        adaptive = mc_objective(fig1_params, kernel, grid,
                                nystrom_rule(fig1_params, kernel, sig, grid), paths)
        bench = mc_objective(fig1_params, kernel, grid, twap_rule(fig1_params, grid), paths)
        diff = adaptive.samples - bench.samples
        sem = diff.std(ddof=1) / np.sqrt(diff.shape[0])
        assert diff.mean() >= -2.0 * sem
        assert adaptive.mean > bench.mean  # comfortably, in practice


class TestPerturbation:
    def test_hat_shape(self):
        grid = TimeGrid.uniform(10, 20)
        v = hat_direction(grid, center=10, width=4)
        assert v[10] == 1.0
        assert v[6] == 0.0 and v[14] == 0.0
        assert v[8] == pytest.approx(0.5)

    def test_zero_bump_changes_nothing(self, fig1_params):
        # at n = 32 and at the minimum grid, n = 2
        sig = OUSignal(I0=2.0, gamma=0.3, sigma=0.5)
        for n in (32, 2):
            grid = TimeGrid.uniform(10, n)
            report = perturbation_test(fig1_params, ExponentialKernel(1, 0.5), sig, grid,
                                       n_paths=20, n_perturbations=3, seed=1,
                                       eps_rels=(0.0,))
            assert report.passed
            assert all(r.mean_diff == 0.0 for r in report.rows)

    def test_deterministic_signal_diffs_nonpositive(self, fig1_params):
        grid = TimeGrid.uniform(10, 64)
        sig = OUSignal(I0=2.0, gamma=0.3, sigma=0.0)
        report = perturbation_test(fig1_params, ExponentialKernel(1, 0.5), sig, grid,
                                   n_paths=1, n_perturbations=10, seed=0)
        assert report.passed
        atol = 1e-9 * (1 + abs(report.base_mean))
        assert all(r.mean_diff <= atol for r in report.rows)
        assert all(r.stderr_diff == 0.0 for r in report.rows)

    def test_stochastic_smoke(self, fig1_params):
        grid = TimeGrid.uniform(10, 48)
        sig = OUSignal(I0=-2.0, gamma=0.3, sigma=0.5)
        report = perturbation_test(fig1_params, FractionalKernel(1, 0.55), sig, grid,
                                   n_paths=200, n_perturbations=6, seed=3)
        assert report.passed
        assert len(report.rows) == 24

    def test_overflow_raises_numeric_error(self, fig1_params, exp_kernel):
        # finite inputs whose objective overflows, with numpy's warnings as
        # errors (pytest's filter): the finiteness check must raise first
        grid = TimeGrid.uniform(10, 48)
        sig = OUSignal(I0=2.0, gamma=0.3, sigma=1e300)
        with pytest.raises(NumericError, match="non-finite objective"):
            perturbation_test(fig1_params, exp_kernel, sig, grid, n_paths=4,
                              n_perturbations=2, seed=11)

    def test_builds_the_increments_once(self, fig1_params, exp_kernel, monkeypatch):
        grid = TimeGrid.uniform(10, 48)
        sig = OUSignal(I0=2.0, gamma=0.3, sigma=0.5)
        built = []

        def counted(*args):
            built.append(None)
            return integrated_increments(*args)

        for module in (kernels_mod, nystrom_mod, oracle_mod):
            monkeypatch.setattr(module, "integrated_increments", counted)
        perturbation_test(fig1_params, exp_kernel, sig, grid, n_paths=64,
                          n_perturbations=3, seed=5)
        assert len(built) == 1

    def test_rows_match_rollouts_through_public_rollout(self, fig1_params, monkeypatch):
        # the engine's increments give every rollout bit for bit what the
        # public rollout, which builds its own, gives
        grid = TimeGrid.uniform(10, 48)
        sig = OUSignal(I0=2.0, gamma=0.3, sigma=0.5)
        kernel = FractionalKernel(1, 0.55)

        def run():
            return perturbation_test(fig1_params, kernel, sig, grid, n_paths=64,
                                     n_perturbations=3, seed=5)

        report = run()

        def public(u, I, params, grid, inc):
            return rollout(u, params, grid, kernel, signal_values=I)

        monkeypatch.setattr(oracle_mod, "_rollout", public)
        reference = run()
        assert report.rows == reference.rows and len(report.rows) == 12
        assert report.base_mean == reference.base_mean

    def test_batch_builds_no_forecast_matrix(self, fig1_params, monkeypatch):
        # the OU source is affine in the path: the whole batch of speeds
        # comes from the engine's c and offset, with no per-path forecasts
        def refuse(*args):
            raise AssertionError("forecast matrix built")

        monkeypatch.setattr(nystrom_mod, "forecast_matrix", refuse)
        monkeypatch.setattr(signals_mod, "forecast_matrix", refuse)
        grid = TimeGrid.uniform(10, 48)
        sig = OUSignal(I0=2.0, gamma=0.3, sigma=0.5)
        report = perturbation_test(fig1_params, ExponentialKernel(1, 0.5), sig, grid,
                                   n_paths=64, n_perturbations=3, seed=5)
        assert report.passed

    @pytest.mark.parametrize("field", ["n_paths", "n_perturbations"])
    def test_rejects_fewer_than_one(self, fig1_params, field):
        grid = TimeGrid.uniform(10, 16)
        sizes = dict(n_paths=4, n_perturbations=2)
        sizes[field] = 0
        with pytest.raises(InputError, match=field):
            perturbation_test(fig1_params, ExponentialKernel(1, 0.5), ZeroSignal(), grid,
                              **sizes)

    @pytest.mark.parametrize("n_paths", [2.5, 3.0, True])
    def test_rejects_a_path_count_that_is_no_integer(self, fig1_params, monkeypatch, n_paths):
        # 2.5 used to run 2 paths and divide the standard errors by sqrt(2.5)
        def unreachable(*args):
            raise AssertionError("built the engine for an invalid path count")

        monkeypatch.setattr(oracle_mod, "NystromEngine", unreachable)
        grid = TimeGrid.uniform(10, 16)
        with pytest.raises(InputError, match="n_paths must be an integer >= 1"):
            perturbation_test(fig1_params, ExponentialKernel(1, 0.5),
                              OUSignal(I0=2.0, gamma=0.3, sigma=0.5), grid,
                              n_paths=n_paths, n_perturbations=2)

    @pytest.mark.parametrize("n_perturbations", [2.5, 3.0, float("nan"), True, "3"], ids=repr)
    def test_rejects_a_perturbation_count_that_is_no_integer(self, fig1_params, monkeypatch,
                                                              n_perturbations):
        # 2.5 used to raise TypeError from range, nan ValueError, and True
        # ran one direction
        def unreachable(*args, **kwargs):
            raise AssertionError("simulated paths for an invalid perturbation count")

        monkeypatch.setattr(oracle_mod, "simulate_signal", unreachable)
        monkeypatch.setattr(oracle_mod, "NystromEngine", unreachable)
        grid = TimeGrid.uniform(10, 16)
        with pytest.raises(InputError, match="n_perturbations must be an integer >= 1"):
            perturbation_test(fig1_params, ExponentialKernel(1, 0.5),
                              OUSignal(I0=2.0, gamma=0.3, sigma=0.5), grid,
                              n_paths=4, n_perturbations=n_perturbations)

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), -float("inf")], ids=repr)
    def test_rejects_a_perturbation_size_that_is_not_finite(self, fig1_params, monkeypatch,
                                                             bad):
        # a nan used to surface as a NumericError saying the strategy overflows
        def unreachable(*args, **kwargs):
            raise AssertionError("simulated paths for an invalid perturbation size")

        monkeypatch.setattr(oracle_mod, "simulate_signal", unreachable)
        monkeypatch.setattr(oracle_mod, "NystromEngine", unreachable)
        grid = TimeGrid.uniform(10, 16)
        with pytest.raises(InputError, match="eps_rels must be some finite numbers"):
            perturbation_test(fig1_params, ExponentialKernel(1, 0.5),
                              OUSignal(I0=2.0, gamma=0.3, sigma=0.5), grid,
                              n_paths=4, n_perturbations=2, eps_rels=(0.05, bad))

    @pytest.mark.parametrize("seed", [True, False])
    def test_rejects_a_bool_seed(self, fig1_params, monkeypatch, seed):
        def unreachable(*args):
            raise AssertionError("built the engine for an invalid seed")

        monkeypatch.setattr(oracle_mod, "NystromEngine", unreachable)
        grid = TimeGrid.uniform(10, 16)
        with pytest.raises(InputError, match="seed must be an integer"):
            perturbation_test(fig1_params, ExponentialKernel(1, 0.5),
                              OUSignal(I0=2.0, gamma=0.3, sigma=0.5), grid,
                              n_paths=4, n_perturbations=2, seed=seed)

    def test_rejects_no_perturbation_sizes(self, fig1_params):
        grid = TimeGrid.uniform(10, 16)
        with pytest.raises(InputError, match="eps_rels"):
            perturbation_test(fig1_params, ExponentialKernel(1, 0.5), ZeroSignal(), grid,
                              n_paths=4, n_perturbations=2, eps_rels=())
