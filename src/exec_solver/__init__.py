"""Optimal liquidation under transient propagator impact with predictive signals.

A numpy library that computes the explicit optimal trading speed for
linear-quadratic liquidation with a Volterra transient-impact kernel,
temporary impact and an optional mean-reverting signal, via a grid
discretization of the governing integral equation, cross-validated by an
independent discrete quadratic-program oracle and Monte Carlo tests.
"""

from .errors import (
    ConfigError,
    ExecSolverError,
    InputError,
    ModelError,
    NumericError,
    UnsupportedSignalError,
)
from .kernels import (
    BoundedPowerLawKernel,
    ExponentialKernel,
    FractionalKernel,
    IntegratedIncrements,
    PropagatorKernel,
    TabulatedKernel,
    ZeroKernel,
    integrated_increments,
)
from .model import (
    ObjectiveBreakdown,
    ScenarioParams,
    StrategyPath,
    TimeGrid,
    evaluate_objective,
    rollout,
)
from .nystrom import (
    NystromEngine,
    solve_scenario,
    solve_scenario_detail,
)
from .oracle import (
    DiscreteQuadraticProgram,
    McEstimate,
    PerturbationReport,
    assemble_qp,
    mc_objective,
    nystrom_rule,
    perturbation_test,
    solve_qp,
    twap_rule,
)
from .signals import (
    OUSignal,
    SignalModel,
    TabulatedSignal,
    ZeroSignal,
    forecast_matrix,
    price_path,
    simulate_signal,
)

__version__ = "0.1.0"
