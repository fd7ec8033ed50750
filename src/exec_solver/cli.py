"""Batch front door: parse a run config, solve scenarios, emit CSV artifacts.

Config files are flat ``key = value`` text with section prefixes::

    mode = solve            # solve | sweep | compare | mc
    output_dir = out
    seed = 7
    grid.n = 200
    scenario.q = 10
    scenario.lambda = 0.5
    kernel.type = exponential
    kernel.rho = 0.5
    signal.type = ou

Unknown keys are rejected. Scenario defaults are q=10, T=10, lambda=0.5,
varrho=4, phi=0, h0=0 with a zero kernel and no signal. Command-line flags
override keys without editing the text, and every point of a sweep or
compare run is built while parsing. ``run`` then solves every case (in mc,
every estimate) and only then writes its tables, so a numeric error leaves
no partial output. Floats are written with full round-trip precision so
re-ingesting an emitted path.csv reproduces the reported objective exactly.

Exit codes: 0 success, 2 configuration error, 3 numeric error.
"""

from __future__ import annotations

import argparse
import logging
import os
import sys
from dataclasses import dataclass, fields
from pathlib import Path

import numpy as np

from .errors import ConfigError, ExecSolverError, InputError, NumericError
from .kernels import (
    BoundedPowerLawKernel,
    ExponentialKernel,
    FractionalKernel,
    PropagatorKernel,
    TabulatedKernel,
    ZeroKernel,
    concavity_failure,
)
from .model import ScenarioParams, TimeGrid
from .nystrom import solve_scenario_detail
from .oracle import mc_objective, nystrom_rule, twap_rule
from .signals import OUSignal, SignalModel, TabulatedSignal, ZeroSignal

__all__ = ["RunConfig", "parse_config", "load_config", "run", "main"]

log = logging.getLogger("exec_solver")

# mc strategy -> whether its rule runs the grid solver, and the rule for a config
_STRATEGIES = {
    "nystrom": (True, lambda cfg: nystrom_rule(cfg.scenario, cfg.kernel, cfg.signal, cfg.grid)),
    "twap": (False, lambda cfg: twap_rule(cfg.scenario, cfg.grid)),
}

_DEFAULTS = {
    "scenario.q": "10",
    "scenario.T": "10",
    "scenario.lambda": "0.5",
    "scenario.varrho": "4",
    "scenario.phi": "0",
    "scenario.h0": "0",
    "seed": "0",
    "grid.n": "200",
    "kernel.type": "zero",
    "kernel.c": "1",
    "kernel.rho": "0.5",
    "kernel.alpha": "0.55",
    "kernel.ell0": "1",
    "kernel.beta": "1",
    "signal.type": "zero",
    "signal.I0": "2",
    "signal.gamma": "0.3",
    "signal.sigma": "0.5",
    "mc.strategies": ", ".join(_STRATEGIES),
}

_REQUIRED = ("mode", "output_dir")

_KNOWN_KEYS = set(_DEFAULTS) | set(_REQUIRED) | {
    "scenario.h0_csv",
    "kernel.csv",
    "signal.csv",
    "signal.forecast_csv",
    "sweep.param",
    "sweep.values",
    "compare.kernels",
    "mc.n_paths",
}

# a sweep may vary these and the keys that the configured kernel and signal read
_SWEPT_SCENARIO_KEYS = ("scenario.q", "scenario.lambda", "scenario.varrho", "scenario.phi")


@dataclass(frozen=True, eq=False)
class RunCase:
    """One solve of a sweep or compare run: a swept value or a kernel type."""

    label: str
    file_name: str
    scenario: ScenarioParams
    kernel: PropagatorKernel
    signal: SignalModel


@dataclass(eq=False)
class RunConfig:
    """Fully validated run description built from a config file.

    ``cases`` holds every solve of a sweep or compare run, already built.
    """

    mode: str
    output_dir: Path
    seed: int
    n: int
    scenario: ScenarioParams
    kernel: PropagatorKernel
    signal: SignalModel
    cases: tuple[RunCase, ...] = ()
    mc_n_paths: int = 0
    mc_strategies: tuple[str, ...] = ()

    @property
    def grid(self) -> TimeGrid:
        return TimeGrid.uniform(self.scenario.T, self.n)


def _parse_pairs(text: str, overrides: dict[str, str]) -> dict[str, tuple[str, str]]:
    """Map each key to its value and where it was set: a line of the text,
    or an override, which replaces the text's own value."""
    pairs = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"line {lineno}: expected 'key = value', got {raw!r}")
        key, value = (part.strip() for part in line.split("=", 1))
        if not key or not value:
            raise ConfigError(f"line {lineno}: empty key or value in {raw!r}")
        if key not in _KNOWN_KEYS:
            raise ConfigError(f"line {lineno}: unknown key {key!r}")
        if key in pairs:
            raise ConfigError(f"line {lineno}: duplicate key {key!r}")
        pairs[key] = (value, f"line {lineno}")
    for key, value in overrides.items():
        if key not in _KNOWN_KEYS or not value:
            raise ConfigError(f"override {key} = {value!r}: unknown key or empty value")
        pairs[key] = (value, f"override {key}")
    return pairs


def _get(kv, key, number=float):
    """The value of ``key`` as a float, or as an int if ``number`` is int."""
    value, where = kv[key]
    try:
        return number(value)
    except ValueError:
        need = "an integer" if number is int else "a number"
        raise ConfigError(f"{where}: key {key!r} needs {need}, got {value!r}") from None


def _read_grid_csv(kv, key: str, base_dir: Path, n: int) -> np.ndarray:
    """The vector in the CSV file named by ``key``: one value per grid point."""
    path = _resolve(base_dir, kv[key][0])
    try:
        raw = path.read_text().strip().splitlines()
    except OSError as exc:
        raise ConfigError(f"cannot read {path}: {exc}") from exc
    rows = [line.split(",")[0].strip() for line in raw if line.strip()]
    try:
        float(rows[0])
    except (ValueError, IndexError):
        rows = rows[1:]  # header row
    try:
        values = np.array([float(v) for v in rows])
    except ValueError as exc:
        raise ConfigError(f"non-numeric entry in {path}: {exc}") from exc
    if values.shape != (n + 1,):
        raise ConfigError(f"{key} has {values.shape[0]} values, grid needs {n + 1}")
    return values


def _read_matrix_csv(path: Path) -> np.ndarray:
    try:
        return np.loadtxt(path, delimiter=",")
    except OSError as exc:
        raise ConfigError(f"cannot read {path}: {exc}") from exc
    except ValueError as exc:
        raise ConfigError(f"cannot parse matrix from {path}: {exc}") from exc


def _resolve(base_dir: Path, value: str) -> Path:
    p = Path(value)
    return p if p.is_absolute() else base_dir / p


def _build_scenario(kv, base_dir: Path, n: int) -> ScenarioParams:
    if "scenario.h0_csv" in kv:
        h0 = _read_grid_csv(kv, "scenario.h0_csv", base_dir, n)
    else:
        h0 = _get(kv, "scenario.h0")
    try:
        # the fields q, T, lam, varrho and phi, in order
        return ScenarioParams(*(_get(kv, f"scenario.{key}")
                                for key in ("q", "T", "lambda", "varrho", "phi")), h0=h0)
    except InputError as exc:
        raise ConfigError(f"infeasible scenario parameters: {exc}") from exc


def _tabulated_kernel(kv, base_dir: Path, grid: TimeGrid) -> TabulatedKernel:
    values = _read_grid_csv(kv, "kernel.csv", base_dir, grid.n)
    return TabulatedKernel.from_grid_values(grid, values)


def _tabulated_signal(kv, base_dir: Path, grid: TimeGrid) -> TabulatedSignal:
    values = _read_grid_csv(kv, "signal.csv", base_dir, grid.n)
    forecast = None
    if "signal.forecast_csv" in kv:
        forecast = _read_matrix_csv(_resolve(base_dir, kv["signal.forecast_csv"][0]))
    return TabulatedSignal(values=values, forecast=forecast)


# One table per vocabulary, from "<section>.type" to what builds the model: a
# closed-form class, built from the config keys "<section>.<field>" of its
# fields, or the CSV reader of a tabulated type.
_MODELS = {
    "kernel": {"zero": ZeroKernel, "exponential": ExponentialKernel,
               "fractional": FractionalKernel, "bounded_power_law": BoundedPowerLawKernel,
               "tabulated": _tabulated_kernel},
    "signal": {"zero": ZeroSignal, "ou": OUSignal, "tabulated": _tabulated_signal},
}


def _model_keys(kv, section: str) -> list[str]:
    """The numeric config keys that the configured model of ``section`` reads."""
    kind = kv[f"{section}.type"][0]
    if kind not in _MODELS[section]:
        raise ConfigError(f"unknown {section}.type {kind!r}")
    if kind == "tabulated":
        return []
    return [f"{section}.{field.name}" for field in fields(_MODELS[section][kind])]


def _build_model(kv, section: str, base_dir: Path, grid: TimeGrid):
    kind = kv[f"{section}.type"][0]
    keys = _model_keys(kv, section)
    build = _MODELS[section][kind]
    try:
        if kind == "tabulated":
            if f"{section}.csv" not in kv:
                raise ConfigError(f"{section}.type = tabulated requires {section}.csv")
            return build(kv, base_dir, grid)
        return build(**{key.split(".", 1)[1]: _get(kv, key) for key in keys})
    except InputError as exc:
        raise ConfigError(f"infeasible {section} parameters: {exc}") from exc


def _build_models(kv, base_dir: Path, n: int):
    """Scenario, kernel and signal of one solve on the n-step grid."""
    scenario = _build_scenario(kv, base_dir, n)
    grid = TimeGrid.uniform(scenario.T, n)
    kernel = _build_model(kv, "kernel", base_dir, grid)
    signal = _build_model(kv, "signal", base_dir, grid)
    if scenario.phi != 0.0:
        raise ConfigError(
            "scenario.phi > 0 is outside the grid solver's domain; use the "
            "quadratic-program oracle API (exec_solver.oracle) for phi > 0"
        )
    return scenario, kernel, signal


def _build_cases(kv, base_dir: Path, n: int, mode: str) -> tuple[RunCase, ...]:
    """Every solve of a sweep or compare run: the config with one key replaced."""
    if mode == "sweep":
        if "sweep.param" not in kv or "sweep.values" not in kv:
            raise ConfigError("mode = sweep requires sweep.param and sweep.values")
        param = kv["sweep.param"][0]
        sweepable = [*_SWEPT_SCENARIO_KEYS, *_model_keys(kv, "kernel"), *_model_keys(kv, "signal")]
        if param not in sweepable:
            raise ConfigError(
                f"sweep.param {param!r} is not sweepable; choose one of "
                f"{', '.join(sorted(sweepable))}"
            )
        try:
            values = [float(v) for v in kv["sweep.values"][0].split(",")]
        except ValueError as exc:
            raise ConfigError(f"sweep.values must be a comma list of numbers: {exc}") from exc
        where = kv["sweep.values"][1]
        points = [(param, _fmt(v), f"path_{param.replace('.', '_')}_{_fname_token(v)}.csv")
                  for v in values]
    else:
        if "compare.kernels" not in kv:
            raise ConfigError("mode = compare requires compare.kernels")
        where = kv["compare.kernels"][1]
        points = [("kernel.type", kind, f"path_{_fname_token(kind)}.csv")
                  for kind in (k.strip() for k in kv["compare.kernels"][0].split(","))]
    cases = []
    for key, value, file_name in points:
        # a repeated point would solve twice and overwrite its own file
        if any(case.file_name == file_name for case in cases):
            raise ConfigError(f"{where}: repeated {mode} point {key} = {value}")
        try:
            models = _build_models({**kv, key: (value, where)}, base_dir, n)
        except ConfigError as exc:
            raise ConfigError(f"{where}: {mode} point {key} = {value}: {exc}") from exc
        cases.append(RunCase(value, file_name, *models))
    return tuple(cases)


def parse_config(text: str, base_dir: Path | str = ".",
                 overrides: dict[str, str] | None = None) -> RunConfig:
    """Parse and fully validate config text; raises ConfigError on any fault.

    ``overrides`` maps config keys to values that replace the text's own.
    Relative CSV paths resolve against ``base_dir``. Every solve of a sweep
    or compare run is built here, so a bad point fails before any output.
    """
    base_dir = Path(base_dir)
    kv = _parse_pairs(text, overrides or {})

    missing = [key for key in _REQUIRED if key not in kv]
    if missing:
        raise ConfigError(f"missing required keys: {', '.join(sorted(missing))}")

    for key, value in _DEFAULTS.items():
        kv.setdefault(key, (value, "default"))

    mode = kv["mode"][0]
    if mode not in _MODES:
        raise ConfigError(f"unknown mode {mode!r}; expected one of {', '.join(_MODES)}")

    n = _get(kv, "grid.n", int)
    if n < 2:
        raise ConfigError(f"grid.n must be >= 2, got {n}")
    seed = _get(kv, "seed", int)
    if seed < 0:
        raise ConfigError(f"seed must be >= 0, got {seed}")

    cfg = RunConfig(mode, Path(kv["output_dir"][0]), seed, n, *_build_models(kv, base_dir, n))

    if mode in ("sweep", "compare"):
        cfg.cases = _build_cases(kv, base_dir, n, mode)
    elif mode == "mc":
        if "mc.n_paths" not in kv:
            raise ConfigError("mode = mc requires mc.n_paths")
        n_paths = _get(kv, "mc.n_paths", int)
        if n_paths < 2:
            raise ConfigError(f"mc.n_paths must be >= 2, got {n_paths}")
        names, where = kv["mc.strategies"]
        for name in (part.strip() for part in names.split(",")):
            if name not in _STRATEGIES:
                raise ConfigError(f"unknown mc strategy {name!r}; "
                                  f"expected {' or '.join(_STRATEGIES)}")
            if name in cfg.mc_strategies:
                raise ConfigError(f"{where}: repeated mc strategy {name}")
            cfg.mc_strategies += (name,)
        cfg.mc_n_paths = n_paths
    # the grid solver needs forecasts and a concave objective; an mc run
    # whose rules do not solve merely replays the path
    if mode != "mc" or any(_STRATEGIES[s][0] for s in cfg.mc_strategies):
        if kv["signal.type"][0] == "tabulated" and "signal.forecast_csv" not in kv:
            raise ConfigError("signal.type = tabulated has no closed-form forecast: the grid "
                              "solver needs signal.forecast_csv")
        for case in cfg.cases or (cfg,):
            kind = case.label if mode == "compare" else kv["kernel.type"][0]
            _require_concave(case, kind, cfg.grid,
                             f"{mode} point {case.label}: " if cfg.cases else "")
    return cfg


def _require_concave(case, kind: str, grid: TimeGrid, where: str):
    """Reject a kernel whose discrete objective has no maximum on this grid.

    Every kernel type is checked: a closed-form kernel that is nonnegative
    definite in the continuum can still lose concavity on a coarse grid or
    at small lambda. ``concavity_failure`` certifies most kernels in O(n)
    and runs its O(n^2) Schur pass on the rest.
    """
    failure = concavity_failure(case.kernel, case.scenario, grid)
    if failure is not None:
        step, pivot = failure
        raise ConfigError(
            f"{where}kernel.type = {kind}: the discrete objective is not strictly concave "
            f"at scenario.lambda = {case.scenario.lam!r}: its Hessian pivot at grid step {step} "
            f"is {pivot:.3g}, so the kernel is not nonnegative definite at this resolution"
        )


def load_config(path: Path | str, overrides: dict[str, str] | None = None) -> RunConfig:
    path = Path(path)
    try:
        text = path.read_text(encoding="utf-8")
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    return parse_config(text, base_dir=path.parent, overrides=overrides)


# ---------------------------------------------------------------------------
# CSV emission. Each mode solves every case first and returns its tables:
# a file name, a header line and columns, each a list of formatted cells or
# an array of numbers. ``run`` then writes every table with one writer,
# which formats a table's numbers just before writing it.

def _fmt(x) -> str:
    return repr(float(x))


def _format_column(values) -> list[str]:
    # tolist() yields Python floats, whose repr is _fmt of the same doubles
    return list(map(repr, np.asarray(values, dtype=float).tolist()))


def _path_table(name: str, solution, grid: TimeGrid, prefixes: dict[bytes, list[str]]):
    """One path table: the row prefixes ``i,t,I,nu_tt``, then a, u, Q and Z.

    The grid and signal columns t, I and nu_tt recur across the files of a
    sweep or compare run. ``prefixes`` maps the bytes of those three
    columns to the row prefixes ``i,t,I,nu_tt`` they format to, so each
    distinct set is formatted once per run.
    """
    sp = solution.path
    shared = np.stack((grid.t, sp.I, solution.forecast_diag))
    key = shared.tobytes()
    if key not in prefixes:
        index = map(str, range(grid.n + 1))
        prefixes[key] = list(map(",".join, zip(index, *map(_format_column, shared))))
    return name, "i,t,I,nu_tt,a,u,Q,Z", [prefixes[key], solution.source, sp.u, sp.Q, sp.Z]


def _fname_token(value) -> str:
    # decimal points in numbers become 'p' so values stay one filename token
    return str(value).replace(".", "p").replace("-", "m").replace("/", "_")


def _solve_tables(cfg: RunConfig) -> list:
    sol = solve_scenario_detail(cfg.scenario, cfg.kernel, cfg.signal, cfg.grid, cfg.seed)
    breakdown = sol.path.objective
    components = [field.name for field in fields(breakdown)]
    values = np.array([getattr(breakdown, name) for name in components])
    return [_path_table("path.csv", sol, cfg.grid, {}),
            ("breakdown.csv", "component,value", [components, values])]


_SUMMARY_HEADERS = {"sweep": ["param", "u0", "Q_T", "total"],
                    "compare": ["kernel", "u0", "Q_T", "Z_T", "total"]}


def _case_tables(cfg: RunConfig) -> list:
    # every case draws the signal path from the same seed, so compare's
    # kernels all trade against one realized path
    header = _SUMMARY_HEADERS[cfg.mode]
    tables, summary, prefixes = [], [], {}
    for case in cfg.cases:
        sol = solve_scenario_detail(case.scenario, case.kernel, case.signal, cfg.grid, cfg.seed)
        tables.append(_path_table(case.file_name, sol, cfg.grid, prefixes))
        sp = sol.path
        values = {"u0": sp.u[0], "Q_T": sp.Q[-1], "Z_T": sp.Z[-1], "total": sp.objective.total}
        summary.append([values[column] for column in header[1:]])
    labels = [case.label for case in cfg.cases]
    tables.append(("summary.csv", ",".join(header),
                   [labels, *map(np.array, zip(*summary))]))
    return tables


def _mc_tables(cfg: RunConfig) -> list:
    estimates = [mc_objective(cfg.scenario, cfg.kernel, cfg.signal, cfg.grid,
                              _STRATEGIES[name][1](cfg), cfg.mc_n_paths, cfg.seed)
                 for name in cfg.mc_strategies]
    columns = [list(cfg.mc_strategies),
               np.array([est.mean for est in estimates]),
               np.array([est.stderr for est in estimates]),
               [str(est.n_paths) for est in estimates],
               [str(est.seed) for est in estimates]]
    return [("mc_summary.csv", "strategy,mean,stderr,n_paths,seed", columns)]


# mode -> what solves the run and returns its tables
_MODES = {"solve": _solve_tables, "sweep": _case_tables, "compare": _case_tables,
          "mc": _mc_tables}


def _write_table(path: Path, header: str, columns: list) -> Path:
    cells = [_format_column(c) if isinstance(c, np.ndarray) else c for c in columns]
    path.write_text("\n".join([header, *map(",".join, zip(*cells))]) + "\n",
                    encoding="utf-8")
    log.info("wrote %s", path)
    return path


def run(cfg: RunConfig) -> list[Path]:
    """Execute a validated config; returns the list of files written.

    Every solve returns before the first file is written, so a run that
    raises NumericError creates no output directory. The library's solve
    and Monte Carlo entry points turn numpy's floating-point warnings off,
    so an overflow surfaces as the NumericError of the finiteness check of
    its stage, under any warning filter. An output directory that cannot be
    created or written is a ConfigError.
    """
    tables = _MODES[cfg.mode](cfg)
    out = cfg.output_dir
    try:
        out.mkdir(parents=True, exist_ok=True)
        return [_write_table(out / name, header, columns) for name, header, columns in tables]
    except OSError as exc:
        raise ConfigError(f"cannot write output_dir {out}: {exc}") from exc


# ---------------------------------------------------------------------------
# entry point

def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="exec-solver",
        description="Optimal liquidation under transient propagator impact",
    )
    parser.add_argument("--config", required=True, help="run configuration file")
    parser.add_argument("--mode", choices=_MODES, help="override the config mode")
    parser.add_argument("--out", help="override the output directory")
    parser.add_argument("--seed", type=int, help="override the simulation seed")
    parser.add_argument("--grid-n", type=int, help="override the number of grid steps")
    return parser


def main(argv=None) -> int:
    logging.basicConfig(level=os.environ.get("EXEC_SOLVER_LOG", "WARNING").upper(),
                        format="%(levelname)s %(name)s: %(message)s")
    args = _build_parser().parse_args(argv)
    flags = {"mode": args.mode, "output_dir": args.out, "seed": args.seed, "grid.n": args.grid_n}
    overrides = {key: str(value) for key, value in flags.items() if value is not None}
    try:
        files = run(load_config(args.config, overrides))
    except (ConfigError, InputError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except NumericError as exc:
        print(f"numeric error: {exc}", file=sys.stderr)
        return 3
    except ExecSolverError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    for f in files:
        print(f)
    return 0


if __name__ == "__main__":
    sys.exit(main())
