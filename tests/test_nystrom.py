from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from exec_solver import (
    BoundedPowerLawKernel,
    ExponentialKernel,
    FractionalKernel,
    InputError,
    IntegratedIncrements,
    NumericError,
    NystromEngine,
    OUSignal,
    ScenarioParams,
    SignalModel,
    TabulatedKernel,
    TabulatedSignal,
    TimeGrid,
    UnsupportedSignalError,
    ZeroKernel,
    ZeroSignal,
    integrated_increments,
    solve_scenario,
    solve_scenario_detail,
)
import exec_solver.nystrom as nystrom_mod
import exec_solver.signals as signals_mod
from conftest import dense_curvature, direct_loop_curvature
from exec_solver.nystrom import response_rows
from exec_solver.model import toeplitz_view
from exec_solver.signals import forecast_matrix, simulate_signal


def split_rows(rows):
    """F and I - B from the packed rows of ``response_rows``.

    F is the upper triangle, row i holding D_i^{-T} e_i (its row n is zero);
    I - B has the strict lower triangle, a unit diagonal and the unit vector
    e_n as its last column.
    """
    n = rows.shape[1]
    system = np.eye(n + 1)
    system[:, :n] += np.tril(rows, -1)
    return np.triu(rows), system


def dense_response_rows(inc, params, grid):
    """Reference rows D_i^{-T} e_i, one dense solve per step; row n is zero."""
    n = grid.n
    F = np.zeros((n + 1, n))
    for i in range(n):
        F[i] = np.linalg.solve(dense_curvature(inc, params, grid, i).T, np.eye(n)[i])
    return F


def fraction_solve(A, rhs):
    """Exact solution of A x = rhs over the rationals, by Gauss-Jordan elimination."""
    n = len(A)
    M = [list(row) + [r] for row, r in zip(A, rhs)]
    for c in range(n):
        p = next(r for r in range(c, n) if M[r][c] != 0)
        M[c], M[p] = M[p], M[c]
        for r in range(n):
            if r != c and M[r][c] != 0:
                factor = M[r][c] / M[c][c]
                M[r] = [x - factor * y for x, y in zip(M[r], M[c])]
    return [M[k][n] / M[k][k] for k in range(n)]


def exact_system(inc, params, grid, forecasts):
    """I - B and the source a in exact arithmetic on the float inputs.

    B[i, j] = (w_i . L_col_j - L[i, j]) / (2 lam) below the diagonal and
    a_i = (N[i, i] - w_i . N_col_i + w_i . h~ - h~_i) / (2 lam), with each
    w_i from an exact solve of D_i^T w_i = U_i.
    """
    n = grid.n
    two_lam = Fraction(2.0 * params.lam)
    L = [[Fraction(x) for x in row] for row in inc.L]
    U = [[Fraction(x) for x in row] for row in inc.U]
    N = [[Fraction(x) for x in row] for row in forecasts]
    h = [Fraction(x) for x in params.h0_values(grid) - 2.0 * params.varrho * params.q]
    system = [[Fraction(int(k == j)) for j in range(n + 1)] for k in range(n + 1)]
    a = []
    for i in range(n + 1):
        DT = [[(two_lam if j == k else 0) + (L[j][k] + U[j][k] if min(j, k) >= i else 0)
               for j in range(n)] for k in range(n)]
        w = fraction_solve(DT, U[i][:n])
        for j in range(i):
            system[i][j] -= (sum(w[k] * L[k][j] for k in range(n)) - L[i][j]) / two_lam
        a.append((N[i][i] - h[i] - sum(w[k] * (N[k][i] - h[k]) for k in range(n))) / two_lam)
    return system, a


def dense_system(inc, params, grid):
    """I - B from dense solves; B[i, :i] = -(D_i^{-T} e_i) . L[:n, :i] for i < n.

    Since w_i = e_i - 2 lam D_i^{-T} e_i, this is the formula
    (w_i . L_col_j - L[i, j]) / (2 lam) without its cancellation; row n is
    -L[n] / (2 lam).
    """
    n, two_lam = grid.n, 2.0 * params.lam
    L = inc.L
    system = np.eye(n + 1)
    system[n, :n] = L[n, :n] / two_lam
    for i in range(n):
        f = np.linalg.solve(dense_curvature(inc, params, grid, i).T, np.eye(n)[i])
        system[i, :i] = f @ L[:n, :i]
    return system


def increments_from_cells(cell, dt=1.0):
    """Increments of a convolution kernel with the given cell integrals, varrho = 0."""
    return IntegratedIncrements(cell=np.asarray(cell, dtype=float), dt=dt, varrho=0.0)


def dense_increments_reference(inc):
    """L, U and LG assembled entry by entry from the index pattern of the generator."""
    cell, n = inc.cell, inc.n
    k, j = np.indices((n + 1, n + 1))
    LG = np.where(k > j, cell[np.clip(k - j - 1, 0, n - 1)], 0.0)
    L = np.where(k > j, LG + inc.aug, 0.0)
    U = np.where((j >= k) & (j < n), cell[np.clip(j - k, 0, n - 1)] + inc.aug, 0.0)
    return L, U, LG


@st.composite
def admissible_kernels(draw, grid):
    kind = draw(st.sampled_from(["exponential", "fractional", "bounded_power_law", "tabulated"]))
    pos = st.floats(0.05, 5.0)
    scale = st.floats(1e-6, 5.0)  # down to impact far below the temporary cost
    if kind == "exponential":
        return ExponentialKernel(c=draw(scale), rho=draw(pos))
    if kind == "fractional":
        return FractionalKernel(c=draw(scale), alpha=draw(st.floats(0.51, 0.99)))
    if kind == "bounded_power_law":
        # ell0 down to a twentieth of a cell: a sharp first cell, integrated in closed form
        ell0 = grid.dt * draw(st.floats(0.05, 10.0))
        return BoundedPowerLawKernel(ell0=ell0, beta=draw(st.floats(0.1, 2.0)))
    # a positive mixture of exponentials: nonnegative, decreasing and convex
    terms = draw(st.lists(st.tuples(pos, pos), min_size=1, max_size=3))
    values = sum(c * np.exp(-rho * grid.t) for c, rho in terms)
    return TabulatedKernel.from_grid_values(grid, values)


class TestIncrementGenerator:
    @pytest.mark.parametrize("n", [2, 3, 16])
    def test_dense_views_match_index_pattern(self, n):
        params = ScenarioParams(q=10, T=10, lam=0.5, varrho=1.5)
        grid = TimeGrid.uniform(10, n)
        for kernel in (ZeroKernel(), ExponentialKernel(1.0, 0.5), FractionalKernel(1.0, 0.55),
                       BoundedPowerLawKernel(0.5, 2.0)):
            inc = integrated_increments(kernel, params, grid)
            L, U, LG = dense_increments_reference(inc)
            assert np.array_equal(inc.L, L)
            assert np.array_equal(inc.U, U)
            assert np.array_equal(inc.LG, LG)

    def test_solve_path_builds_no_dense_views(self, monkeypatch, fig1_params, exp_kernel):
        import exec_solver.kernels as kernels_mod
        import exec_solver.nystrom as nystrom_mod

        built = []

        def recording(*args, **kwargs):
            built.append(integrated_increments(*args, **kwargs))
            return built[-1]

        monkeypatch.setattr(kernels_mod, "integrated_increments", recording)
        monkeypatch.setattr(nystrom_mod, "integrated_increments", recording)
        signal = OUSignal(I0=1.0, gamma=0.3, sigma=0.5)
        solve_scenario_detail(fig1_params, exp_kernel, signal, TimeGrid.uniform(10, 32), seed=3)
        assert built
        for inc in built:
            assert not {"L", "U", "LG"} & set(vars(inc))


class TestCurvature:
    def test_zero_kernel_no_penalty_is_scaled_identity(self):
        params = ScenarioParams(q=10, T=10, lam=0.5, varrho=0)
        grid = TimeGrid.uniform(10, 6)
        inc = integrated_increments(ZeroKernel(), params, grid)
        for i in range(7):
            D = dense_curvature(inc, params, grid, i)
            assert np.array_equal(D, np.eye(6))  # 2 lam = 1

    def test_last_step_is_scaled_identity_any_kernel(self, fig1_params, exp_kernel):
        grid = TimeGrid.uniform(10, 6)
        inc = integrated_increments(exp_kernel, fig1_params, grid)
        D = dense_curvature(inc, fig1_params, grid, 6)
        assert np.array_equal(D, np.eye(6))

    def test_matches_direct_loop(self, fig1_params, exp_kernel):
        grid = TimeGrid.uniform(10, 8)
        for kernel in (exp_kernel, FractionalKernel(1.0, 0.55), ZeroKernel()):
            inc = integrated_increments(kernel, fig1_params, grid)
            for i in (0, 1, 3, 7, 8):
                got = dense_curvature(inc, fig1_params, grid, i)
                want = direct_loop_curvature(inc, fig1_params.lam, 8, i)
                assert np.allclose(got, want, rtol=0, atol=1e-14)

    def test_response_rows_apply_dense_inverse(self, fig1_params, exp_kernel, rng):
        # f_m . x is e_i . D_i^{-1} x for any right-hand side x; row n is zero
        grid = TimeGrid.uniform(10, 10)
        inc = integrated_increments(exp_kernel, fig1_params, grid)
        F, _ = split_rows(response_rows(inc, fig1_params, grid))
        for i in (0, 4, 9, 10):
            D = dense_curvature(inc, fig1_params, grid, i)
            x = rng.normal(size=(10, 3))
            assert np.allclose(F[i] @ x, np.eye(11)[i, :10] @ np.linalg.solve(D, x),
                               rtol=1e-12, atol=1e-13)

    def test_min_eigenvalue_at_least_lam(self, fig1_params):
        # symmetrized curvature stays above the temporary-impact floor
        grid = TimeGrid.uniform(10, 64)
        kernels = [ZeroKernel(), ExponentialKernel(1, 0.5),
                   FractionalKernel(1, 0.55), BoundedPowerLawKernel(1.0, 1.0)]
        for kernel in kernels:
            inc = integrated_increments(kernel, fig1_params, grid)
            for i in range(65):
                D = dense_curvature(inc, fig1_params, grid, i)
                w = np.linalg.eigvalsh(0.5 * (D + D.T))
                assert w[0] >= fig1_params.lam - 1e-12, (type(kernel).__name__, i, w[0])

    def test_symmetrization_defect_shrinks_with_dt(self, fig1_params, exp_kernel):
        defects = []
        for n in (32, 64, 128, 256):
            grid = TimeGrid.uniform(10, n)
            inc = integrated_increments(exp_kernel, fig1_params, grid)
            d = dense_curvature(inc, fig1_params, grid, 0) - np.eye(n)
            defects.append(np.max(np.abs(d - d.T)))
        for coarse, fine in zip(defects, defects[1:]):
            assert coarse / fine >= 1.8

    def test_phi_rejected_with_pointer(self, exp_kernel):
        params = ScenarioParams(q=10, T=10, lam=0.5, varrho=4, phi=0.1)
        grid = TimeGrid.uniform(10, 6)
        inc = integrated_increments(exp_kernel, params, grid)
        with pytest.raises(InputError, match="oracle"):
            response_rows(inc, params, grid)


class TestResponse:
    def test_zero_row_without_kernel_or_penalty(self, rng):
        params = ScenarioParams(q=10, T=10, lam=0.5, varrho=0)
        grid = TimeGrid.uniform(10, 6)
        inc = integrated_increments(ZeroKernel(), params, grid)
        F, system = split_rows(response_rows(inc, params, grid))
        # D_i = I (2 lam = 1): each row is e_i, and every row of B is zero
        assert np.array_equal(F, dense_response_rows(inc, params, grid))
        assert np.array_equal(F, np.eye(7, 6))
        assert np.array_equal(system, np.eye(7))
        for i in (0, 3, 6):
            x = rng.normal(size=6)
            assert F[i] @ x == (x[i] if i < 6 else 0.0)

    def test_zero_rhs(self, fig1_params, exp_kernel):
        grid = TimeGrid.uniform(10, 6)
        inc = integrated_increments(exp_kernel, fig1_params, grid)
        F, _ = split_rows(response_rows(inc, fig1_params, grid))
        assert np.any(F[2] != 0.0)
        assert F[2] @ np.zeros(6) == 0.0

    def test_dense_solve_oracle(self):
        # n = 4, dt = 1, i = 0, f = ones, against a generic dense solve
        params = ScenarioParams(q=10, T=4, lam=0.5, varrho=0)
        grid = TimeGrid.uniform(4, 4)
        kernel = ExponentialKernel(1.0, 0.5)
        inc = integrated_increments(kernel, params, grid)
        got = float(split_rows(response_rows(inc, params, grid))[0][0] @ np.ones(4))
        D = dense_curvature(inc, params, grid, 0)
        want = float(np.linalg.solve(D, np.ones(4))[0])
        assert got == pytest.approx(want, abs=1e-12)

    def test_rows_match_dense_transposed_solves(self, fig1_params, exp_kernel):
        grid = TimeGrid.uniform(10, 12)
        inc = integrated_increments(exp_kernel, fig1_params, grid)
        F, _ = split_rows(response_rows(inc, fig1_params, grid))
        assert np.allclose(F, dense_response_rows(inc, fig1_params, grid),
                           rtol=1e-12, atol=1e-13)
        assert np.all(F[12] == 0.0)

    @settings(max_examples=60, deadline=None)
    @given(data=st.data(), n=st.integers(2, 64), varrho=st.floats(0.0, 10.0),
           lam=st.floats(0.05, 5.0), T=st.floats(0.5, 20.0))
    def test_rows_match_dense_reference_property(self, data, n, varrho, lam, T):
        params = ScenarioParams(q=10, T=T, lam=lam, varrho=varrho)
        grid = TimeGrid.uniform(T, n)
        kernel = data.draw(admissible_kernels(grid))
        inc = integrated_increments(kernel, params, grid)
        F, _ = split_rows(response_rows(inc, params, grid))
        ref = dense_response_rows(inc, params, grid)
        for i in range(n + 1):
            scale = np.max(np.abs(ref[i]))
            assert np.max(np.abs(F[i] - ref[i])) <= 1e-10 * scale, (kernel, i)

    @pytest.mark.parametrize("n", [3, 5, 8])
    def test_singular_leading_section_names_step(self, n):
        # 2 lam = 1 and cells (1, 4, ...): the 2x2 section [[2, 4], [1, 2]] is
        # singular, and it completes at step n - 2
        inc = increments_from_cells([1.0, 4.0] + [0.5] * (n - 2))
        params = ScenarioParams(q=1, T=n, lam=0.5)
        grid = TimeGrid.uniform(n, n)
        with pytest.raises(NumericError, match=f"step {n - 2} "):
            response_rows(inc, params, grid)


def feedback_matrix(params, kernel, grid):
    """B = I - (the engine's system), exact below the diagonal."""
    engine = NystromEngine(params, kernel, grid, ZeroSignal())
    return np.eye(grid.n + 1) - split_rows(engine.rows)[1]


def source_vector(params, kernel, grid, forecasts):
    return NystromEngine(params, kernel, grid, ZeroSignal()).source_vector(forecasts)


class TestFeedbackMatrix:
    def test_zero_for_trivial_problem(self):
        params = ScenarioParams(q=10, T=10, lam=0.5, varrho=0)
        grid = TimeGrid.uniform(10, 6)
        B = feedback_matrix(params, ZeroKernel(), grid)
        assert np.all(B == 0.0)

    def test_strictly_lower_triangular(self, fig1_params, exp_kernel):
        grid = TimeGrid.uniform(10, 10)
        B = feedback_matrix(fig1_params, exp_kernel, grid)
        assert np.all(np.triu(B) == 0.0)
        assert np.any(B != 0.0)

    def test_penalty_only_direct_loop(self):
        # G = 0, varrho > 0: entries reduce to (U_i' D_i^-1 L_col - 2 varrho dt)/(2 lam)
        params = ScenarioParams(q=10, T=4, lam=0.5, varrho=4)
        grid = TimeGrid.uniform(4, 4)
        inc = integrated_increments(ZeroKernel(), params, grid)
        B = feedback_matrix(params, ZeroKernel(), grid)
        for i in range(5):
            D = dense_curvature(inc, params, grid, i)
            for j in range(i):
                want = (inc.U[i, :4] @ np.linalg.solve(D, inc.L[:4, j]) - inc.L[i, j]) / 1.0
                assert B[i, j] == pytest.approx(want, abs=1e-12)
                assert B[i, j] != 0.0


class TestSystem:
    @pytest.mark.parametrize("n", [2, 3, 8])
    @pytest.mark.parametrize("lam", [0.5, 0.01])
    @pytest.mark.parametrize("varrho", [0.0, 4.0])
    def test_matches_exact_reference(self, n, lam, varrho):
        params = ScenarioParams(q=10, T=10, lam=lam, varrho=varrho, h0=0.3)
        grid = TimeGrid.uniform(10, n)
        sig = OUSignal(I0=2.0, gamma=0.3, sigma=0.5)
        N = forecast_matrix(sig, simulate_signal(sig, grid, seed=3), grid)
        for kernel in (FractionalKernel(1.0, 0.55), ExponentialKernel(1.0, 0.5),
                       BoundedPowerLawKernel(0.5, 1.5)):
            engine = NystromEngine(params, kernel, grid, sig)
            assert engine.rows.flags.c_contiguous
            _, system = split_rows(engine.rows)
            exact, exact_a = exact_system(engine.inc, params, grid, N)
            # source and speeds, each to a bound on its largest entry
            a = engine.source_vector(N)
            a_err = float(max(abs(Fraction(x) - want) for x, want in zip(a, exact_a)))
            assert a_err <= 1e-14 * np.max(np.abs(a)), (kernel, a_err)
            exact_u = []
            for k in range(n + 1):
                exact_u.append(exact_a[k] - sum(exact[k][j] * exact_u[j] for j in range(k)))
            u = engine._speeds(a)
            u_err = float(max(abs(Fraction(x) - want) for x, want in zip(u, exact_u)))
            assert u_err <= 1e-12 * np.max(np.abs(u)), (kernel, u_err)
            for k in range(n + 1):
                for j in range(n + 1):
                    want = exact[k][j]
                    if want == 0:
                        assert system[k, j] == 0.0, (kernel, k, j)
                    else:
                        rel = abs(float((Fraction(system[k, j]) - want) / want))
                        assert rel <= 1e-13, (kernel, k, j, rel)

    @settings(max_examples=60, deadline=None)
    @given(data=st.data(), n=st.integers(2, 64), varrho=st.floats(0.0, 10.0),
           lam=st.floats(0.05, 5.0), T=st.floats(0.5, 20.0))
    def test_matches_dense_reference_property(self, data, n, varrho, lam, T):
        params = ScenarioParams(q=10, T=T, lam=lam, varrho=varrho)
        grid = TimeGrid.uniform(T, n)
        kernel = data.draw(admissible_kernels(grid))
        inc = integrated_increments(kernel, params, grid)
        _, system = split_rows(response_rows(inc, params, grid))
        ref = dense_system(inc, params, grid)
        # the recursion is accurate to about eps times the condition number
        # of the curvature matrix: 1e-13 of the row up to a condition number
        # of 1000, growing with it beyond (a small lam under a large varrho)
        kappa = np.linalg.cond(dense_curvature(inc, params, grid, 0))
        tol = 1e-13 * max(1.0, kappa / 1000.0)
        for i in range(n + 1):
            scale = np.max(np.abs(ref[i]))
            assert np.max(np.abs(system[i] - ref[i])) <= tol * scale, (kernel, i, kappa)


class TestSourceVector:
    def test_all_terms_vanish(self):
        params = ScenarioParams(q=10, T=10, lam=0.5, varrho=0)
        grid = TimeGrid.uniform(10, 6)
        a = source_vector(params, ZeroKernel(), grid, np.zeros((7, 7)))
        assert np.all(a == 0.0)

    def test_terminal_penalty_hand_values(self, fig1_params):
        # zero signal, h0 = 0, G = 0, varrho = 4, q = 10, lam = 0.5:
        # a_n = 2 varrho q / (2 lam) = 80 and a_0 equals the constant-rate
        # closed form varrho q / (lam + varrho T)
        grid = TimeGrid.uniform(10, 10)
        a = source_vector(fig1_params, ZeroKernel(), grid, np.zeros((11, 11)))
        assert a[-1] == pytest.approx(80.0, rel=1e-13)
        assert a[0] == pytest.approx(80.0 / 81.0, rel=1e-12)

    def test_positive_signal_lowers_initial_speed(self, fig1_params, exp_kernel):
        grid = TimeGrid.uniform(10, 16)
        sig = OUSignal(I0=2.0, gamma=0.3, sigma=0.0)
        N = forecast_matrix(sig, simulate_signal(sig, grid, 0), grid)
        engine = NystromEngine(fig1_params, exp_kernel, grid, sig)
        with_sig = engine.source_vector(N)
        without = engine.source_vector(np.zeros_like(N))
        assert N[0, 0] < 0.0
        assert with_sig[0] < without[0]

    def test_forecast_shape_checked(self, fig1_params, exp_kernel):
        grid = TimeGrid.uniform(10, 6)
        with pytest.raises(InputError, match="forecast matrix"):
            source_vector(fig1_params, exp_kernel, grid, np.zeros((6, 6)))

    def test_nested_list_reaches_the_shape_check(self, fig1_params, exp_kernel):
        grid = TimeGrid.uniform(10, 6)
        with pytest.raises(InputError, match=r"forecast matrix has shape \(6, 6\)"):
            source_vector(fig1_params, exp_kernel, grid, [[0.0] * 6] * 6)
        want = source_vector(fig1_params, exp_kernel, grid, np.zeros((7, 7)))
        got = source_vector(fig1_params, exp_kernel, grid, [[0.0] * 7] * 7)
        assert np.array_equal(got, want)


def engine_signals(n, rng):
    """An OU, a zero and a tabulated signal with a random forecast, on n steps."""
    forecast = np.tril(rng.normal(size=(n + 1, n + 1)))
    return [OUSignal(I0=2.0, gamma=0.3, sigma=0.5), ZeroSignal(),
            TabulatedSignal(rng.normal(size=n + 1), forecast=forecast)]


class TestEngine:
    @pytest.mark.parametrize("n", [2, 3, 16, 200])
    def test_source_vector_matches_builder(self, n, exp_kernel, rng):
        # against the source formula evaluated row by row from the engine's F:
        # a_i = f_m . (N[:n, i] - h~[:n]) and a_n = (N[n, n] - h~_n) / (2 lam);
        # the sums run in another order, so entries that nearly cancel are
        # held to 1e-13 of the magnitude of their terms
        params = ScenarioParams(q=10.0, T=10.0, lam=0.5, varrho=4.0, h0=0.3)
        grid = TimeGrid.uniform(10.0, n)
        h_tilde = params.h0_values(grid) - 2.0 * params.varrho * params.q
        two_lam = 2.0 * params.lam
        for sig in engine_signals(n, rng):
            engine = NystromEngine(params, exp_kernel, grid, sig)
            path = simulate_signal(sig, grid, seed=4)
            N = forecast_matrix(sig, path, grid)
            F, _ = split_rows(engine.rows)
            want, scale = np.empty(n + 1), np.empty(n + 1)
            for i in range(n):
                want[i] = F[i] @ (N[:n, i] - h_tilde[:n])
                scale[i] = np.abs(F[i]) @ (np.abs(N[:n, i]) + np.abs(h_tilde[:n]))
            want[n] = (N[n, n] - h_tilde[n]) / two_lam
            scale[n] = (abs(N[n, n]) + abs(h_tilde[n])) / two_lam
            assert np.all(np.abs(engine.source_vector(N) - want) <= 1e-13 * scale)

    @pytest.mark.parametrize("n", [2, 3, 128, 129, 300])
    def test_affine_source_matches_forecast_matrix_route(self, n, frac_kernel):
        # a = I * c + offset against the contraction with the dense OU
        # forecasts; n = 128 ends on a block of the terminal row alone and
        # n = 129 crosses the 128-row block edge. At gamma = 80, e underflows
        params = ScenarioParams(q=10.0, T=10.0, lam=0.5, varrho=4.0, h0=0.3)
        grid = TimeGrid.uniform(10.0, n)
        signals = [OUSignal(I0=2.0, gamma=gamma, sigma=sigma)
                   for gamma in (0.0, 1e-13, 0.3, 80.0) for sigma in (0.0, 0.5)]
        for sig in signals + [ZeroSignal()]:
            engine = NystromEngine(params, frac_kernel, grid, sig)
            for seed in (1, 2):
                path = simulate_signal(sig, grid, seed=seed)
                N = forecast_matrix(sig, path, grid)
                want = engine.source_vector(N)
                a = engine.source_for_path(path)
                assert np.max(np.abs(a - want)) <= 1e-15 * np.max(np.abs(want)), sig
                # the Schur route takes the same dots in another summation order
                detail = solve_scenario_detail(params, frac_kernel, sig, grid, signal_path=path)
                assert np.max(np.abs(detail.source - a)) <= 1e-13 * np.max(np.abs(a)), sig
                assert np.array_equal(detail.forecast_diag, np.diag(N)), sig

    def test_solve_builds_no_forecast_matrix(self, monkeypatch, fig1_params, frac_kernel):
        def refuse(*args):
            raise AssertionError("forecast matrix built")

        monkeypatch.setattr(nystrom_mod, "forecast_matrix", refuse)
        monkeypatch.setattr(signals_mod, "forecast_matrix", refuse)
        grid = TimeGrid.uniform(10.0, 32)
        for sig in (OUSignal(I0=2.0, gamma=0.3, sigma=0.5), ZeroSignal()):
            assert np.all(np.isfinite(solve_scenario(fig1_params, frac_kernel, sig, grid).u))

    def test_tabulated_forecast_goes_through_source_vector(self, fig1_params, exp_kernel, rng,
                                                          monkeypatch):
        # the build contracts the user forecast once; every source, of one
        # path or of a batch, is then that contraction, the source_vector of
        # the forecast, with the signs of its zeros: with no terminal
        # penalty, no h0 and a zero forecast every entry is +0.0
        n = 16
        grid = TimeGrid.uniform(10.0, n)
        calls = []

        def counted(*args):
            calls.append(args)
            return forecast_matrix(*args)

        monkeypatch.setattr(nystrom_mod, "forecast_matrix", counted)
        no_penalty = ScenarioParams(q=10.0, T=10.0, lam=0.5, varrho=0.0)
        for params, forecast in [(fig1_params, rng.normal(size=(n + 1, n + 1))),
                                 (no_penalty, np.zeros((n + 1, n + 1)))]:
            values = rng.normal(size=n + 1)
            sig = TabulatedSignal(values, forecast=forecast)
            calls.clear()
            engine = NystromEngine(params, exp_kernel, grid, sig)
            assert len(calls) == 1 and np.all(engine.c == 0.0)
            N = forecast_matrix(sig, values, grid)
            want = engine.source_vector(N)
            if params is no_penalty:
                assert not np.any(want) and not np.signbit(want).any()
            for path in (values, -values, np.vstack([values, -values, np.zeros(n + 1)])):
                a = engine.source_for_path(path)
                ref = np.broadcast_to(want, path.shape)
                assert a.shape == path.shape and a.flags.writeable
                assert np.array_equal(a, ref) and np.array_equal(np.signbit(a), np.signbit(ref))
            assert len(calls) == 1
            # the Schur route contracts the same forecast column by column
            detail = solve_scenario_detail(params, exp_kernel, sig, grid)
            assert np.max(np.abs(detail.source - want)) <= 1e-13 * np.max(np.abs(want))
            assert np.array_equal(detail.forecast_diag, np.diag(N))

    def test_signal_that_cannot_be_sourced_fails_the_build(self, fig1_params, exp_kernel,
                                                            monkeypatch):
        # each used to build, and raise only at the first source_for_path
        class OtherSignal(SignalModel):
            pass

        def unreachable(*args):
            raise AssertionError("built response rows for a signal with no source")

        monkeypatch.setattr(nystrom_mod, "response_rows", unreachable)
        grid = TimeGrid.uniform(10.0, 8)
        with pytest.raises(UnsupportedSignalError, match="no closed-form forecast"):
            NystromEngine(fig1_params, exp_kernel, grid, TabulatedSignal(np.ones(9)))
        with pytest.raises(InputError, match=r"expected \(9,\)"):
            NystromEngine(fig1_params, exp_kernel, grid,
                          TabulatedSignal(np.ones(10), forecast=np.eye(10)))
        with pytest.raises(InputError, match="unknown signal model OtherSignal"):
            NystromEngine(fig1_params, exp_kernel, grid, OtherSignal())

    def test_source_for_path_checks_the_path_shape(self, fig1_params, exp_kernel):
        grid = TimeGrid.uniform(10.0, 8)
        for sig in (OUSignal(I0=2.0, gamma=0.3, sigma=0.5), ZeroSignal()):
            engine = NystromEngine(fig1_params, exp_kernel, grid, sig)
            with pytest.raises(InputError, match="signal path"):
                engine.source_for_path(np.zeros(8))
        with pytest.raises(InputError, match="signal path"):
            signals_mod.forecast_diagonal(OUSignal(I0=2.0, gamma=0.3, sigma=0.5), np.zeros(8), grid)

    @pytest.mark.parametrize("n", [2, 3, 16, 200])
    def test_batch_speeds_match_single_paths(self, n, fig1_params, frac_kernel, rng):
        grid = TimeGrid.uniform(10.0, n)
        for sig in engine_signals(n, rng):
            engine = NystromEngine(fig1_params, frac_kernel, grid, sig)
            paths = simulate_signal(sig, grid, seed=7, n_paths=5)
            batch = engine.speeds_for_paths(paths)
            for row, path in zip(batch, paths):
                # the blocked batch solve rounds differently: entries that
                # nearly cancel get an absolute floor at the row's scale
                single = engine.speed_for_path(path)
                np.testing.assert_allclose(row, single, rtol=1e-13,
                                           atol=1e-13 * np.max(np.abs(single)))

    @pytest.mark.parametrize("size", [3, nystrom_mod._BLOCK - 1, nystrom_mod._BLOCK,
                                      nystrom_mod._BLOCK + 1, 2 * nystrom_mod._BLOCK + 1])
    def test_blocked_substitution_matches_dense_solve(self, size, fig1_params, frac_kernel, rng):
        # around the block edges: one padded block, one exact block, and full
        # blocks followed by a block of one row
        grid = TimeGrid.uniform(10.0, size - 1)
        engine = NystromEngine(fig1_params, frac_kernel, grid, ZeroSignal())
        system = split_rows(engine.rows)[1]
        one = rng.normal(size=size)
        u = engine._speeds(one)
        want = np.linalg.solve(system, one)
        assert np.max(np.abs(u - want)) <= 1e-12 * np.max(np.abs(want))
        batch = rng.normal(size=(4, size))
        for a, u in zip(batch, engine._speeds(batch)):
            want = np.linalg.solve(system, a)
            assert np.max(np.abs(u - want)) <= 1e-12 * np.max(np.abs(want))

    def test_holds_one_packed_rows_array(self, fig1_params, exp_kernel):
        grid = TimeGrid.uniform(10.0, 16)
        engine = NystromEngine(fig1_params, exp_kernel, grid, ZeroSignal())
        held = {k: v for k, v in vars(engine).items() if isinstance(v, np.ndarray)}
        assert set(held) == {"rows", "block_inverses", "offset", "c", "base"}
        assert held["offset"].shape == held["c"].shape == (17,) and np.all(held["c"] == 0.0)
        # with no tabulated forecast the path-free source is the offset itself
        assert held["base"] is held["offset"]
        rows = held["rows"]
        assert rows.shape == (17, 16) and rows.dtype == float and rows.flags.c_contiguous
        # B = -tril(F L), with row n of B equal to -L[n] / (2 lam)
        F, system = split_rows(rows)
        L = engine.inc.L
        B = -np.tril(F @ L[:16], k=-1)
        B[16] = -L[16] / (2.0 * fig1_params.lam)
        np.testing.assert_allclose(system, np.eye(17) - B, rtol=1e-13, atol=0)

    def test_forecast_above_diagonal_is_not_read(self, fig1_params, exp_kernel, rng):
        # forecasts made at t_j about earlier times k < j are never used: a
        # user forecast gives the source and speeds of its lower triangle
        n = 16
        grid = TimeGrid.uniform(10.0, n)
        values = rng.normal(size=n + 1)
        full = rng.normal(size=(n + 1, n + 1))
        sources, speeds = [], []
        for forecast in (full, np.tril(full)):
            sig = TabulatedSignal(values, forecast=forecast)
            engine = NystromEngine(fig1_params, exp_kernel, grid, sig)
            sources.append(engine.source_vector(forecast_matrix(sig, values, grid)))
            speeds.append(engine.speed_for_path(values))
        assert np.array_equal(sources[0], sources[1])
        assert np.array_equal(speeds[0], speeds[1])

    def test_failed_substitution_raises(self, fig1_params, exp_kernel):
        # a finite source whose speeds overflow double precision, with
        # numpy's warnings as errors (pytest's filter)
        grid = TimeGrid.uniform(10.0, 8)
        sig = OUSignal(I0=2.0, gamma=0.3, sigma=0.0)
        path = np.full(9, 1e308)
        engine = NystromEngine(fig1_params, exp_kernel, grid, sig)
        assert np.all(np.isfinite(engine.source_for_path(path)))
        with pytest.raises(NumericError, match="non-finite optimal speeds"):
            solve_scenario_detail(fig1_params, exp_kernel, sig, grid, signal_path=path)

    @pytest.mark.parametrize("method", ["speeds_for_paths", "speed_for_path",
                                        "source_for_path", "source_vector"])
    def test_public_methods_raise_numeric_error_on_overflow(self, method):
        # each public method on its own, with finite inputs whose result
        # overflows and numpy's warnings as errors (pytest's filter): the
        # overflow must raise NumericError, not numpy's warning
        grid = TimeGrid.uniform(10, 8)
        engine = NystromEngine(ScenarioParams(q=10, T=10, lam=0.5, varrho=4),
                               ExponentialKernel(1, 0.5), grid,
                               OUSignal(I0=2, gamma=0.3, sigma=0))
        big = np.finfo(float).max
        if method == "speeds_for_paths":
            arg = np.full((1, 9), 1e308)  # overflows in the substitution
        elif method == "speed_for_path":
            arg = np.full(9, 1e308)  # overflows in the forecast matrix
        elif method == "source_for_path":
            arg = np.full(9, big)  # |c| > 1 at the start: overflows in I * c
        else:
            # a finite lower-triangular forecast of the largest double,
            # matched in sign to f_m: sum |f_m| > 1 in the first rows, so
            # the contraction overflows
            arg = np.zeros((9, 9))
            for i in range(8):
                arg[i:8, i] = big * np.sign(engine.rows[i, i:])
        with pytest.raises(NumericError, match="non-finite"):
            getattr(engine, method)(arg)

    @pytest.mark.parametrize("entry", ["engine", "solve_scenario_detail"])
    def test_overflowing_rows_raise_numeric_error(self, entry):
        # the zero kernel at a lambda that overflows the response rows, with
        # numpy's warnings as errors (pytest's filter): the pivot check
        # must raise, not the overflow warning of the division by 2 lam
        params = ScenarioParams(q=10, T=10, lam=1e-320, varrho=4)
        grid = TimeGrid.uniform(10, 48)
        sig = OUSignal(I0=2.0, gamma=0.3, sigma=0.5)
        with pytest.raises(NumericError, match="curvature matrix at step 46 is singular"):
            if entry == "engine":
                NystromEngine(params, ZeroKernel(), grid, sig)
            else:
                solve_scenario_detail(params, ZeroKernel(), sig, grid)

    @pytest.mark.parametrize("n", [128, 129, 200])
    def test_overflowing_feedback_raises_numeric_error(self, n):
        # at lambda = 1e-310 the pivots pass but row n of I - B, g / (2 lam),
        # is infinite; at n = 129 it lies in a block that LAPACK's inverse
        # calls singular. Under pytest's warnings-as-errors filter the build
        # or the batch must raise NumericError, never LinAlgError
        params = ScenarioParams(q=10, T=10, lam=1e-310, varrho=4)
        grid = TimeGrid.uniform(10, n)
        sig = OUSignal(I0=2.0, gamma=0.3, sigma=0.5)
        with pytest.raises(NumericError, match="non-finite"):
            engine = NystromEngine(params, ExponentialKernel(1.0, 0.5), grid, sig)
            engine.speeds_for_paths(simulate_signal(sig, grid, seed=1, n_paths=3))


def route_kernels(grid):
    """Every closed-form kernel and a tabulated one, on ``grid``."""
    values = 0.8 * np.exp(-0.4 * grid.t) + 0.3 * np.exp(-3.0 * grid.t)
    return [ZeroKernel(), ExponentialKernel(1.0, 0.5), FractionalKernel(1.0, 0.55),
            BoundedPowerLawKernel(1.0, 0.6), TabulatedKernel.from_grid_values(grid, values)]


DETERMINISTIC_SIGNALS = [ZeroSignal()] + [OUSignal(I0=2.0, gamma=gamma, sigma=0.0)
                                          for gamma in (0.0, 1e-13, 0.3, 80.0)]


def engine_solve(params, kernel, grid, sig, path):
    """Source and speeds of one path from the batch engine, the reference of the Schur route."""
    engine = NystromEngine(params, kernel, grid, sig)
    a = engine.source_for_path(path)
    return a, engine._speeds(a)


class TestDeterministicRoute:
    """Forecasts never revised: A u[:n] = w in one Schur pass, no back substitution.

    That is a zero signal, or OU with sigma = 0 whose path the solver draws.
    The errors that the Schur route shares with the engine are tested here
    on both.
    """

    def test_system_is_rows_times_toeplitz(self, fig1_params, frac_kernel):
        # (I - B)[:n, :n] = F A, the identity that the route rests on
        n = 40
        grid = TimeGrid.uniform(10.0, n)
        inc = integrated_increments(frac_kernel, fig1_params, grid)
        F, system = split_rows(response_rows(inc, fig1_params, grid))
        A = dense_curvature(inc, fig1_params, grid, 0)
        assert np.max(np.abs(F[:n] @ A - system[:n, :n])) <= 1e-14 * np.max(np.abs(A))

    @pytest.mark.parametrize("n", [2, 3, 64, 129, 1000])
    def test_matches_engine_route(self, n):
        # the engine on the drawn path against the Schur route, which skips
        # the back substitution here; the two agree to rounding. At
        # gamma = 80 the forecasts underflow
        params = ScenarioParams(q=10.0, T=10.0, lam=0.5, varrho=4.0, h0=0.3)
        grid = TimeGrid.uniform(10.0, n)
        for kernel in route_kernels(grid):
            for sig in DETERMINISTIC_SIGNALS:
                path = simulate_signal(sig, grid, seed=3)
                a, u = engine_solve(params, kernel, grid, sig, path)
                detail = solve_scenario_detail(params, kernel, sig, grid, seed=3)
                assert np.array_equal(detail.path.I, path)
                du, da = detail.path.u - u, detail.source - a
                assert np.max(np.abs(du)) <= 1e-11 * np.max(np.abs(u)), (kernel, sig)
                assert np.max(np.abs(da)) <= 1e-13 * np.max(np.abs(a)), (kernel, sig)

    @settings(max_examples=60, deadline=None)
    @given(data=st.data(), n=st.integers(2, 64), varrho=st.floats(0.0, 10.0),
           lam=st.floats(0.05, 5.0), T=st.floats(0.5, 20.0), I0=st.floats(-5.0, 5.0),
           gamma=st.floats(0.0, 5.0), h0=st.floats(-2.0, 2.0))
    def test_matches_dense_solve_property(self, data, n, varrho, lam, T, I0, gamma, h0):
        # u[:n] = A^{-1} w by a dense solve, with w = N[:n, 0] - h~[:n], and
        # u_n from row n of I - B
        params = ScenarioParams(q=10, T=T, lam=lam, varrho=varrho, h0=h0)
        grid = TimeGrid.uniform(T, n)
        kernel = data.draw(admissible_kernels(grid))
        sig = OUSignal(I0=I0, gamma=gamma, sigma=0.0)
        inc = integrated_increments(kernel, params, grid)
        N = forecast_matrix(sig, simulate_signal(sig, grid), grid)
        h_tilde = params.h0_values(grid) - 2.0 * varrho * params.q
        want = np.linalg.solve(dense_curvature(inc, params, grid, 0), N[:n, 0] - h_tilde[:n])
        u = solve_scenario(params, kernel, sig, grid).u
        # subnormal speeds (varrho = 5e-324 with no signal and no h0) carry
        # no relative precision: the floor is the smallest normal double
        tiny = np.finfo(float).tiny
        assert np.max(np.abs(u[:n] - want)) <= 1e-10 * np.max(np.abs(want)) + tiny, kernel
        a_n = (N[n, n] - h_tilde[n]) / (2.0 * lam)
        feedback = inc.L[n, :n] / (2.0 * lam)
        scale = abs(a_n) + np.abs(feedback) @ np.abs(want)
        assert abs(u[n] - (a_n - feedback @ want)) <= 1e-10 * scale + tiny, kernel

    @pytest.mark.parametrize("n", [1, 2, 3, 17, 100])
    def test_toeplitz_inverse_apply_matches_dense_inverse(self, n, rng):
        # random non-symmetric Toeplitz matrices, their first and last rows
        # of the inverse from a dense inverse
        for _ in range(5):
            col, row = rng.normal(size=n), rng.normal(size=n)
            col[0] = row[0] = row[0] + 2.0 * np.sign(row[0])
            A = toeplitz_view(col, row)
            inverse = np.linalg.inv(A)
            w = rng.normal(size=n)
            got = nystrom_mod._toeplitz_inverse_apply(inverse[0], inverse[-1], w)
            want = inverse @ w
            assert np.max(np.abs(got - want)) <= 1e-11 * np.max(np.abs(want)) * np.linalg.cond(A)

    def test_builds_no_engine_rows_or_forecast_matrix(self, monkeypatch, fig1_params,
                                                      frac_kernel):
        def refuse(*args):
            raise AssertionError("engine route taken")

        for name in ("NystromEngine", "response_rows", "_diagonal_block_inverses",
                     "forecast_matrix"):
            monkeypatch.setattr(nystrom_mod, name, refuse)
        monkeypatch.setattr(signals_mod, "forecast_matrix", refuse)
        grid = TimeGrid.uniform(10.0, 200)
        for sig in DETERMINISTIC_SIGNALS:
            assert np.all(np.isfinite(solve_scenario(fig1_params, frac_kernel, sig, grid).u))

    @pytest.mark.parametrize("route", ["schur", "engine"])
    def test_phi_raises_the_same_input_error(self, exp_kernel, route):
        # the single-solve Schur route, with and without back substitution,
        # and the batch engine
        params = ScenarioParams(q=10, T=10, lam=0.5, varrho=4, phi=1.0)
        grid = TimeGrid.uniform(10, 8)
        for sigma in (0.0, 0.5):
            sig = OUSignal(I0=2.0, gamma=0.3, sigma=sigma)
            with pytest.raises(InputError, match="the grid solver is stated for phi = 0; use "
                                                 "exec_solver.oracle"):
                if route == "schur":
                    solve_scenario(params, exp_kernel, sig, grid)
                else:
                    NystromEngine(params, exp_kernel, grid, sig)

    @pytest.mark.parametrize("route", ["schur", "engine"])
    @pytest.mark.parametrize("n", [3, 5, 8])
    def test_singular_section_names_the_same_step(self, monkeypatch, n, route):
        # the cells of TestResponse::test_singular_leading_section_names_step
        inc = increments_from_cells([1.0, 4.0] + [0.5] * (n - 2))
        monkeypatch.setattr(nystrom_mod, "integrated_increments", lambda *args: inc)
        params = ScenarioParams(q=1, T=n, lam=0.5)
        grid = TimeGrid.uniform(n, n)
        for sigma in (0.0, 0.5):
            sig = OUSignal(I0=2.0, gamma=0.3, sigma=sigma)
            with pytest.raises(NumericError, match=f"curvature matrix at step {n - 2} is "
                                                   "singular"):
                if route == "schur":
                    solve_scenario(params, ZeroKernel(), sig, grid)
                else:
                    NystromEngine(params, ZeroKernel(), grid, sig)

    def test_overflowing_rows_raise_numeric_error(self):
        # TestEngine's case with sigma = 0, under pytest's warnings-as-errors
        # filter: the shared pivot check raises before any overflow warns
        params = ScenarioParams(q=10, T=10, lam=1e-320, varrho=4)
        grid = TimeGrid.uniform(10, 48)
        sig = OUSignal(I0=2.0, gamma=0.3, sigma=0.0)
        with pytest.raises(NumericError, match="curvature matrix at step 46 is singular"):
            solve_scenario_detail(params, ZeroKernel(), sig, grid)

    def test_overflowing_source_raises_numeric_error(self):
        # a finite scenario whose source overflows: h~ = -2 varrho q = -inf
        params = ScenarioParams(q=1e308, T=10, lam=0.5, varrho=4)
        grid = TimeGrid.uniform(10, 48)
        sig = OUSignal(I0=2.0, gamma=0.3, sigma=0.0)
        with pytest.raises(NumericError, match="non-finite source vector"):
            solve_scenario_detail(params, ExponentialKernel(1.0, 0.5), sig, grid)


def revised_cases(grid, rng):
    """(signal, explicit path or None) pairs whose forecasts may be revised.

    Noisy OU at every gamma of DETERMINISTIC_SIGNALS, a tabulated signal
    with a random forecast, and explicit paths, which need not follow the
    forecasts of their signal; a zero signal's forecasts stay zero on any
    path, so its solve skips the back substitution.
    """
    n = grid.n
    forecast = np.tril(rng.normal(size=(n + 1, n + 1)))
    return ([(OUSignal(I0=2.0, gamma=gamma, sigma=0.5), None)
             for gamma in (0.0, 1e-13, 0.3, 80.0)]
            + [(TabulatedSignal(rng.normal(size=n + 1), forecast=forecast), None),
               (TabulatedSignal(rng.normal(size=n + 1), forecast=forecast),
                rng.normal(size=n + 1)),
               (OUSignal(I0=2.0, gamma=0.3, sigma=0.0), rng.normal(size=n + 1)),
               (OUSignal(I0=-1.0, gamma=0.3, sigma=0.5), rng.normal(size=n + 1)),
               (ZeroSignal(), rng.normal(size=n + 1))])


class TestSchurRoute:
    """Every single solve, back substitution included, against the batch engine."""

    @pytest.mark.parametrize("n", [2, 3, 64, 129, 1000])
    def test_matches_engine_route(self, n, rng):
        params = ScenarioParams(q=10.0, T=10.0, lam=0.5, varrho=4.0, h0=0.3)
        grid = TimeGrid.uniform(10.0, n)
        for kernel in route_kernels(grid):
            for sig, given_path in revised_cases(grid, rng):
                detail = solve_scenario_detail(params, kernel, sig, grid, seed=3,
                                               signal_path=given_path)
                path = simulate_signal(sig, grid, seed=3) if given_path is None else given_path
                assert np.array_equal(detail.path.I, path)
                a, u = engine_solve(params, kernel, grid, sig, path)
                du, da = detail.path.u - u, detail.source - a
                assert np.max(np.abs(du)) <= 1e-11 * np.max(np.abs(u)), (kernel, sig)
                assert np.max(np.abs(da)) <= 1e-13 * np.max(np.abs(a)), (kernel, sig)

    def test_other_inputs_agree_with_the_engine(self, fig1_params, frac_kernel, rng):
        # OU with sigma > 0, a tabulated signal, and explicit paths: the
        # speeds and source of the engine, to rounding
        n = 150
        grid = TimeGrid.uniform(10.0, n)
        forecast = np.tril(rng.normal(size=(n + 1, n + 1)))
        tabulated = TabulatedSignal(rng.normal(size=n + 1), forecast=forecast)
        cases = [(OUSignal(I0=2.0, gamma=0.3, sigma=0.5), None), (tabulated, None),
                 (OUSignal(I0=2.0, gamma=0.3, sigma=0.0), rng.normal(size=n + 1)),
                 (ZeroSignal(), np.zeros(n + 1))]
        for sig, given_path in cases:
            path = simulate_signal(sig, grid, seed=8) if given_path is None else given_path
            a, u = engine_solve(fig1_params, frac_kernel, grid, sig, path)
            detail = solve_scenario_detail(fig1_params, frac_kernel, sig, grid, seed=8,
                                           signal_path=given_path)
            assert np.max(np.abs(detail.path.u - u)) <= 1e-11 * np.max(np.abs(u)), sig
            assert np.max(np.abs(detail.source - a)) <= 1e-13 * np.max(np.abs(a)), sig

    @settings(max_examples=60, deadline=None)
    @given(data=st.data(), n=st.integers(2, 64), varrho=st.floats(0.0, 10.0),
           lam=st.floats(0.05, 5.0), T=st.floats(0.5, 20.0), gamma=st.floats(0.0, 5.0),
           h0=st.floats(-2.0, 2.0), case=st.sampled_from(["ou", "tabulated", "path"]),
           seed=st.integers(0, 2**32 - 1))
    def test_matches_dense_solve_property(self, data, n, varrho, lam, T, gamma, h0, case,
                                          seed):
        # u against a dense solve of the engine's own I - B with the
        # engine's source, for noisy OU, tabulated and explicit paths
        params = ScenarioParams(q=10, T=T, lam=lam, varrho=varrho, h0=h0)
        grid = TimeGrid.uniform(T, n)
        kernel = data.draw(admissible_kernels(grid))
        gen = np.random.default_rng(seed)
        given_path = None
        if case == "tabulated":
            sig = TabulatedSignal(gen.normal(size=n + 1),
                                  forecast=gen.normal(size=(n + 1, n + 1)))
        else:
            sig = OUSignal(I0=2.0, gamma=gamma, sigma=0.5)
            if case == "path":
                given_path = gen.normal(size=n + 1)
        detail = solve_scenario_detail(params, kernel, sig, grid, seed=seed % 1000,
                                       signal_path=given_path)
        engine = NystromEngine(params, kernel, grid, sig)
        a = engine.source_for_path(detail.path.I)
        want = np.linalg.solve(split_rows(engine.rows)[1], a)
        u = detail.path.u
        assert np.max(np.abs(u[:n] - want[:n])) <= 1e-10 * np.max(np.abs(want[:n])), kernel
        # u_n = a_n - (row n of B) . u[:n] amplifies the rounding of u[:n]
        # by the feedback g / (2 lam), as in TestDeterministicRoute
        scale = abs(a[n]) + np.abs(engine.rows[n]) @ np.abs(want[:n])
        assert abs(u[n] - want[n]) <= 1e-10 * scale, kernel

    @pytest.mark.parametrize("n", [2, 17, 200])
    def test_speeds_are_adapted_to_the_path(self, n, fig1_params, rng):
        # u_i may use I_0..I_i only: bumping the path after step k leaves
        # u[:k+1] where it was, to rounding, though the solve never forms
        # the triangular (I - B)^{-1} that makes this exact
        grid = TimeGrid.uniform(10.0, n)
        sig = OUSignal(I0=2.0, gamma=0.3, sigma=0.5)
        for kernel in route_kernels(grid):
            path = simulate_signal(sig, grid, seed=5)
            u = solve_scenario(fig1_params, kernel, sig, grid, signal_path=path).u
            for k in sorted({0, n // 2, n - 1}):
                bumped = path.copy()
                bumped[k + 1:] += 10.0 * rng.normal(size=n - k)
                moved = solve_scenario(fig1_params, kernel, sig, grid, signal_path=bumped).u
                assert np.max(np.abs(moved[:k + 1] - u[:k + 1])) <= 1e-12 * np.max(np.abs(u))
                # I_n is never read: its forecast s_n * I_n is zero
                assert k == n - 1 or not np.array_equal(moved[k + 1:], u[k + 1:])

    def test_builds_no_engine_or_rows(self, monkeypatch, fig1_params, frac_kernel, rng):
        def refuse(*args):
            raise AssertionError("engine route taken")

        for name in ("NystromEngine", "response_rows", "_diagonal_block_inverses"):
            monkeypatch.setattr(nystrom_mod, name, refuse)
        grid = TimeGrid.uniform(10.0, 200)
        for sig, given_path in revised_cases(grid, rng):
            sp = solve_scenario(fig1_params, frac_kernel, sig, grid, signal_path=given_path)
            assert np.all(np.isfinite(sp.u)), sig

    def test_bad_signal_or_path_raises_before_the_pass(self, monkeypatch, fig1_params,
                                                       exp_kernel):
        class OtherSignal(SignalModel):
            pass

        def unreachable(*args):
            raise AssertionError("Schur pass started")

        monkeypatch.setattr(nystrom_mod, "_schur_states", unreachable)
        grid = TimeGrid.uniform(10.0, 8)
        ou = OUSignal(I0=2.0, gamma=0.3, sigma=0.5)
        with pytest.raises(UnsupportedSignalError, match="no closed-form forecast"):
            solve_scenario(fig1_params, exp_kernel, TabulatedSignal(np.ones(9)), grid)
        with pytest.raises(InputError, match=r"expected \(9, 9\)"):
            solve_scenario(fig1_params, exp_kernel,
                           TabulatedSignal(np.ones(10), forecast=np.eye(10)), grid,
                           signal_path=np.ones(9))
        with pytest.raises(InputError, match="unknown signal model OtherSignal"):
            solve_scenario(fig1_params, exp_kernel, OtherSignal(), grid,
                           signal_path=np.zeros(9))
        for sig in (ou, OUSignal(I0=2.0, gamma=0.3, sigma=0.0), ZeroSignal()):
            for bad in (np.zeros(8), np.zeros((2, 9))):
                with pytest.raises(InputError, match="signal path has shape"):
                    solve_scenario(fig1_params, exp_kernel, sig, grid, signal_path=bad)


class TestScenario:
    def test_constant_rate_closed_form(self, fig1_params):
        # no transient impact, no signal: u = varrho q / (lam + varrho T)
        grid = TimeGrid.uniform(10, 50)
        sp = solve_scenario(fig1_params, ZeroKernel(), ZeroSignal(), grid)
        assert np.max(np.abs(sp.u - 80.0 / 81.0)) <= 1e-10

    def test_composition_matches_pipeline(self, fig1_params, exp_kernel):
        grid = TimeGrid.uniform(10, 32)
        sig = OUSignal(I0=2.0, gamma=0.3, sigma=0.0)
        engine = NystromEngine(fig1_params, exp_kernel, grid, sig)
        N = forecast_matrix(sig, simulate_signal(sig, grid, 0), grid)
        a = engine.source_vector(N)
        composed = np.linalg.solve(split_rows(engine.rows)[1], a)
        pipeline = solve_scenario(fig1_params, exp_kernel, sig, grid).u
        assert np.allclose(composed, pipeline, rtol=1e-12, atol=1e-13)

    def test_terminal_feedback_identity(self, fig1_params, exp_kernel):
        # the scheme satisfies u_T = (2 varrho Q_T - Z_T) / (2 lam) identically
        grid = TimeGrid.uniform(10, 40)
        sig = OUSignal(I0=-2.0, gamma=0.3, sigma=0.5)
        sp = solve_scenario(fig1_params, exp_kernel, sig, grid, seed=5)
        want = (2 * 4.0 * sp.Q[-1] - sp.Z[-1]) / (2 * 0.5)
        assert sp.u[-1] == pytest.approx(want, rel=1e-10)

    def test_joint_scaling_exact(self, exp_kernel):
        # h0 = 0: doubling (q, I0) doubles the speed bit for bit
        grid = TimeGrid.uniform(10, 24)
        base = ScenarioParams(q=10, T=10, lam=0.5, varrho=4)
        doubled = ScenarioParams(q=20, T=10, lam=0.5, varrho=4)
        sig1 = OUSignal(I0=2.0, gamma=0.3, sigma=0.0)
        sig2 = OUSignal(I0=4.0, gamma=0.3, sigma=0.0)
        u1 = solve_scenario(base, exp_kernel, sig1, grid).u
        u2 = solve_scenario(doubled, exp_kernel, sig2, grid).u
        assert np.array_equal(u2, 2.0 * u1)
        tripled = ScenarioParams(q=30, T=10, lam=0.5, varrho=4)
        sig3 = OUSignal(I0=6.0, gamma=0.3, sigma=0.0)
        u3 = solve_scenario(tripled, exp_kernel, sig3, grid).u
        assert np.max(np.abs(u3 - 3.0 * u1)) <= 1e-12 * np.max(np.abs(u3))

    def test_zero_signal_seed_invariant(self, fig1_params, exp_kernel):
        grid = TimeGrid.uniform(10, 24)
        u_a = solve_scenario(fig1_params, exp_kernel, ZeroSignal(), grid, seed=1).u
        u_b = solve_scenario(fig1_params, exp_kernel, ZeroSignal(), grid, seed=9999).u
        assert np.array_equal(u_a, u_b)

    def test_grid_refinement_converges(self, fig1_params, exp_kernel):
        # sup distance between consecutive refinements keeps shrinking
        sols = {}
        for n in (64, 128, 256, 512):
            grid = TimeGrid.uniform(10, n)
            sols[n] = solve_scenario(fig1_params, exp_kernel, ZeroSignal(), grid).u
        gaps = [np.max(np.abs(sols[2 * n][::2] - sols[n])) for n in (64, 128, 256)]
        assert gaps[0] > gaps[1] > gaps[2]

    @pytest.mark.parametrize("kernel", [FractionalKernel(c=1.0, alpha=0.55),
                                        ExponentialKernel(c=1.0, rho=0.5)],
                             ids=["fractional", "exponential"])
    def test_objective_converges_at_first_order(self, fig1_params, kernel):
        # no signal: the objective converges at first order in dt, the check
        # that still holds on grids far beyond the dense references
        objectives = [solve_scenario(fig1_params, kernel, ZeroSignal(),
                                     TimeGrid.uniform(10, n)).objective.total
                      for n in (250, 500, 1000, 2000)]
        gaps = np.diff(objectives)
        orders = np.log2(gaps[:-1] / gaps[1:])
        assert np.all(np.abs(orders - 1.0) <= 0.05), orders

    def test_early_speed_ordering_fractional_vs_exponential(self, fig1_params):
        # a tenth of the way into the horizon the fractional strategy is
        # the more restrained one (the t = 0 point itself carries the
        # singular kernel's boundary spike)
        grid = TimeGrid.uniform(10, 200)
        ue = solve_scenario(fig1_params, ExponentialKernel(1, 0.5), ZeroSignal(), grid).u
        uf = solve_scenario(fig1_params, FractionalKernel(1, 0.55), ZeroSignal(), grid).u
        k = 20  # t = 1.0
        assert uf[k] < ue[k]

    def test_phi_rejected(self, exp_kernel):
        params = ScenarioParams(q=10, T=10, lam=0.5, varrho=4, phi=1.0)
        grid = TimeGrid.uniform(10, 8)
        with pytest.raises(InputError, match="oracle"):
            solve_scenario(params, exp_kernel, ZeroSignal(), grid)

    def test_objective_filled(self, fig1_params, exp_kernel):
        grid = TimeGrid.uniform(10, 16)
        sp = solve_scenario(fig1_params, exp_kernel, ZeroSignal(), grid)
        assert sp.objective is not None
        parts = (sp.objective.revenue - sp.objective.temporary_cost
                 - sp.objective.transient_cost - sp.objective.running_penalty
                 - sp.objective.terminal_penalty)
        assert sp.objective.total == pytest.approx(parts, rel=1e-12)
