"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
report. The benchmark scenario is q = 10, T = 10, lam = 0.5, varrho = 4,
phi = 0, h0 = 0 unless a criterion states otherwise.
"""

import time

import numpy as np
import pytest
import scipy.integrate as si

from exec_solver import (
    BoundedPowerLawKernel,
    ExponentialKernel,
    FractionalKernel,
    IntegratedIncrements,
    NystromEngine,
    OUSignal,
    ScenarioParams,
    TabulatedKernel,
    TimeGrid,
    ZeroKernel,
    ZeroSignal,
    assemble_qp,
    integrated_increments,
    perturbation_test,
    rollout,
    solve_qp,
    solve_scenario,
)
from conftest import dense_curvature, gram_definiteness
from exec_solver.nystrom import _BLOCK
from exec_solver.signals import price_path, simulate_signal

BENCH = ScenarioParams(q=10.0, T=10.0, lam=0.5, varrho=4.0, phi=0.0)
EXP = ExponentialKernel(c=1.0, rho=0.5)
FRAC = FractionalKernel(c=1.0, alpha=0.55)


def report(num, ok, detail):
    status = "PASS" if ok else "FAIL"
    print(f"\nACCEPTANCE {num} {status}: {detail}")
    assert ok, detail


def early_index(grid):
    # "early trading speed": a tenth of the way into the horizon, clear of
    # the t = 0 boundary layer that singular kernels produce
    return round(0.1 * grid.n)


def test_criterion_1_closed_form_constant_rate():
    # no transient impact, no signal: u = varrho q / (lam + varrho T),
    # matched by both solution routes at n = 1000 within 1e-3, under 60 s
    target = BENCH.varrho * BENCH.q / (BENCH.lam + BENCH.varrho * BENCH.T)
    grid = TimeGrid.uniform(10.0, 1000)
    start = time.time()
    u_grid = solve_scenario(BENCH, ZeroKernel(), ZeroSignal(), grid).u
    inc = integrated_increments(ZeroKernel(), BENCH, grid)
    u_qp = solve_qp(assemble_qp(BENCH, inc, grid, np.zeros(1001)))
    elapsed = time.time() - start
    dev_grid = float(np.max(np.abs(u_grid - target)))
    dev_qp = float(np.max(np.abs(u_qp - target)))
    ok = dev_grid <= 1e-3 and dev_qp <= 1e-3 and elapsed <= 60.0
    report(1, ok,
           f"n=1000 constant-rate target {target:.9f}: solver dev {dev_grid:.2e}, "
           f"oracle dev {dev_qp:.2e}, {elapsed:.1f}s (limit 60s)")


def test_criterion_2_oracle_convergence():
    # exponential kernel, deterministic mean-reverting signal: the two
    # discretizations converge toward each other; gap <= 2e-2 at n = 512
    signal = OUSignal(I0=2.0, gamma=0.3, sigma=0.0)
    gaps = []
    for n in (64, 128, 256, 512):
        grid = TimeGrid.uniform(10.0, n)
        u_grid = solve_scenario(BENCH, EXP, signal, grid).u
        price = price_path(simulate_signal(signal, grid, seed=0), grid)
        inc = integrated_increments(EXP, BENCH, grid)
        u_qp = solve_qp(assemble_qp(BENCH, inc, grid, price))
        gaps.append(float(np.max(np.abs(u_grid - u_qp)) / np.max(np.abs(u_qp))))
    decreasing = all(a > b for a, b in zip(gaps, gaps[1:]))
    ok = decreasing and gaps[-1] <= 2e-2
    report(2, ok,
           "relative sup gaps over n=64,128,256,512: "
           + ", ".join(f"{g:.4f}" for g in gaps)
           + f" (strictly decreasing: {decreasing}, final <= 0.02)")


def test_criterion_3_curvature_positivity():
    # min eigenvalue of the symmetrized curvature matrices stays >= lam
    n = 64
    grid = TimeGrid.uniform(10.0, n)
    worst = np.inf
    for kernel in (ZeroKernel(), EXP, FRAC):
        inc = integrated_increments(kernel, BENCH, grid)
        for i in range(n + 1):
            D = dense_curvature(inc, BENCH, grid, i)
            worst = min(worst, float(np.linalg.eigvalsh(0.5 * (D + D.T))[0]))
    ok = worst >= BENCH.lam - 1e-12
    report(3, ok, f"min eigenvalue over kernels and steps at n=64: {worst:.6f} >= lam={BENCH.lam}")


def test_criterion_4_kernel_admissibility_suite():
    # the Gram matrix of each kernel's symmetrized form, by quadrature of decay
    kernels = [ZeroKernel(), EXP, FRAC, BoundedPowerLawKernel(ell0=1.0, beta=1.0)]
    ok = all(gram_definiteness(kernel, TimeGrid.uniform(10.0, n))[0]
             for n in (16, 64, 256) for kernel in kernels)
    grid = TimeGrid.uniform(10.0, 64)
    negative = TabulatedKernel.from_grid_values(grid, -np.ones(65))
    neg_nonnegative, neg_min_eig = gram_definiteness(negative, grid)
    ok = ok and not neg_nonnegative
    report(4, ok,
           f"all decaying kernels nonnegative at n=16,64,256; "
           f"constant-negative counterexample rejected (min eig {neg_min_eig:.3f})")


@pytest.mark.parametrize("i0", [2.0, -2.0])
def test_criterion_5_stochastic_optimality(i0):
    # 1000 paths, 20 hat directions, eps in {+-5%, +-20%}: no bump improves
    # the strategy by more than 2 standard errors (common random numbers)
    signal = OUSignal(I0=i0, gamma=0.3, sigma=0.5)
    grid = TimeGrid.uniform(10.0, 128)
    start = time.time()
    rep = perturbation_test(BENCH, EXP, signal, grid, n_paths=1000,
                            n_perturbations=20, seed=123)
    elapsed = time.time() - start
    worst = max(r.mean_diff - 2.0 * r.stderr_diff for r in rep.rows)
    ok = rep.passed and elapsed <= 600.0
    report(5, ok,
           f"I0={i0:+.0f}: {len(rep.rows)} estimates, worst (diff - 2 sem) = {worst:.3e}, "
           f"{elapsed:.1f}s (limit 600s)")


def test_criterion_6a_kernel_ordering_and_monotone_inventory():
    grid = TimeGrid.uniform(10.0, 200)
    k = early_index(grid)
    speeds = {}
    monotone = True
    for name, kernel in (("zero", ZeroKernel()), ("exp", EXP), ("frac", FRAC)):
        sp = solve_scenario(BENCH, kernel, ZeroSignal(), grid)
        speeds[name] = sp.u
        monotone = monotone and bool(np.all(np.diff(sp.Q) <= 1e-10))
    ordered = speeds["frac"][k] < speeds["exp"][k]
    ok = ordered and monotone
    report("6a", ok,
           f"early speed (t=T/10): fractional {speeds['frac'][k]:.4f} < "
           f"exponential {speeds['exp'][k]:.4f}: {ordered}; "
           f"all no-signal inventories nonincreasing: {monotone}")


def test_criterion_6b_parameter_sweeps_monotone():
    params = ScenarioParams(q=10.0, T=1.0, lam=0.5, varrho=2.0, phi=0.0)
    grid = TimeGrid.uniform(1.0, 128)
    k = early_index(grid)
    alpha_speeds = [
        solve_scenario(params, FractionalKernel(1.0, a), ZeroSignal(), grid).u[k]
        for a in (0.55, 0.65, 0.75, 0.85, 0.95)
    ]
    rho_speeds = [
        solve_scenario(params, ExponentialKernel(1.0, r), ZeroSignal(), grid).u[k]
        for r in (0.25, 0.5, 1.0, 2.0, 4.0)
    ]
    alpha_ok = all(a <= b for a, b in zip(alpha_speeds, alpha_speeds[1:]))
    rho_ok = all(a <= b for a, b in zip(rho_speeds, rho_speeds[1:]))
    ok = alpha_ok and rho_ok
    report("6b", ok,
           "early speed nondecreasing in alpha: "
           + ", ".join(f"{v:.4f}" for v in alpha_speeds)
           + "; in rho: " + ", ".join(f"{v:.4f}" for v in rho_speeds))


def test_criterion_6c_fractional_impact_persists():
    grid = TimeGrid.uniform(10.0, 128)
    ok = True
    details = []
    for i0 in (2.0, -2.0):
        signal = OUSignal(I0=i0, gamma=0.3, sigma=0.5)
        path = simulate_signal(signal, grid, seed=7)
        z_exp = solve_scenario(BENCH, EXP, signal, grid, signal_path=path).Z[-1]
        z_frac = solve_scenario(BENCH, FRAC, signal, grid, signal_path=path).Z[-1]
        ok = ok and z_frac > z_exp
        details.append(f"I0={i0:+.0f}: Z_T frac {z_frac:.3f} > exp {z_exp:.3f}")
    report("6c", ok, "; ".join(details))


def test_criterion_7_exact_algebra_microchecks():
    rng = np.random.default_rng(7)

    # the engine's blocked forward substitution vs a generic dense solve of
    # its own I - B, for one right-hand side and a batch, on n + 1 = 2 blocks
    # and one row
    n = 2 * _BLOCK
    engine = NystromEngine(BENCH, FRAC, TimeGrid.uniform(10.0, n), ZeroSignal())
    system = np.eye(n + 1)
    system[:, :n] += np.tril(engine.rows, -1)
    fwd_dev = 0.0
    for a in (rng.normal(size=n + 1), rng.normal(size=(4, n + 1))):
        u_fwd = engine._speeds(a)
        u_dense = np.linalg.solve(system, a.T).T
        fwd_dev = max(fwd_dev, float(np.max(np.abs(u_fwd - u_dense))
                                     / max(1.0, np.max(np.abs(u_dense)))))

    # closed-form cell integrals vs scipy's adaptive quadrature
    grid = TimeGrid.uniform(10.0, 128)
    closed = integrated_increments(EXP, BENCH, grid)
    quad_cell = [si.quad(EXP.decay, m * grid.dt, (m + 1) * grid.dt)[0] for m in range(grid.n)]
    quad = IntegratedIncrements(cell=np.array(quad_cell), dt=grid.dt, varrho=BENCH.varrho)
    scale = float(np.max(np.abs(closed.L)))
    table_dev = float(max(np.max(np.abs(closed.L - quad.L)),
                          np.max(np.abs(closed.U - quad.U))) / scale)
    # fractional cells against adaptive quadrature (incl. the singular cell)
    frac_inc = integrated_increments(FRAC, ScenarioParams(q=10, T=10, lam=0.5),
                                     TimeGrid.uniform(10.0, 16))
    dt = 10.0 / 16
    sing = si.quad(lambda x: x ** (0.55 - 1.0), 0.0, dt, points=[0.0])[0]
    off = si.quad(lambda x: x ** (0.55 - 1.0), 2 * dt, 3 * dt)[0]
    frac_dev = max(abs(frac_inc.U[1, 1] - sing) / sing,
                   abs(frac_inc.L[4, 1] - off) / off)
    table_dev = max(table_dev, frac_dev)

    # joint (q, signal) scaling linearity
    grid24 = TimeGrid.uniform(10.0, 24)
    u1 = solve_scenario(BENCH, EXP, OUSignal(2.0, 0.3, 0.0), grid24).u
    u3 = solve_scenario(ScenarioParams(q=30, T=10, lam=0.5, varrho=4), EXP,
                        OUSignal(6.0, 0.3, 0.0), grid24).u
    lin_dev = float(np.max(np.abs(u3 - 3.0 * u1)) / np.max(np.abs(u3)))

    # zero-signal strategy independent of the seed, bit for bit
    ua = solve_scenario(BENCH, EXP, ZeroSignal(), grid24, seed=0).u
    ub = solve_scenario(BENCH, EXP, ZeroSignal(), grid24, seed=2**31).u
    seed_invariant = bool(np.array_equal(ua, ub))

    ok = (fwd_dev <= 1e-10 and table_dev <= 1e-9 and lin_dev <= 1e-12
          and seed_invariant)
    report(7, ok,
           f"forward-vs-dense {fwd_dev:.1e} (<=1e-10); closed-vs-quadrature "
           f"{table_dev:.1e} (<=1e-9); scaling linearity {lin_dev:.1e} (<=1e-12); "
           f"seed-invariant: {seed_invariant}")


def test_criterion_8_fuel_behavior():
    heavy = ScenarioParams(q=10.0, T=10.0, lam=0.5, varrho=1e4, phi=0.0)
    grid = TimeGrid.uniform(10.0, 256)
    worst = 0.0
    for kernel in (ZeroKernel(), EXP, FRAC):
        sp = solve_scenario(heavy, kernel, ZeroSignal(), grid)
        worst = max(worst, abs(float(sp.Q[-1])))
    ok = worst <= 1e-2 * heavy.q
    report(8, ok, f"terminal inventory at varrho=1e4, n=256: worst |Q_T| = {worst:.2e} <= {1e-2 * heavy.q}")
