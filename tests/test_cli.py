import os
import subprocess
import sys
import warnings
from dataclasses import fields
from pathlib import Path

import numpy as np
import pytest

from exec_solver import ConfigError, NumericError, TimeGrid
import exec_solver.cli as cli_mod
import exec_solver.nystrom as nystrom_mod
import exec_solver.oracle as oracle_mod
import exec_solver.signals as signals_mod
from exec_solver.cli import load_config, main, parse_config, run
from exec_solver.kernels import (BoundedPowerLawKernel, ExponentialKernel, FractionalKernel,
                                 TabulatedKernel, ZeroKernel)
from exec_solver.model import evaluate_objective, rollout
from exec_solver.signals import (OUSignal, TabulatedSignal, ZeroSignal, price_path,
                                 simulate_signal)

ROOT = Path(__file__).resolve().parent.parent
CONFIG_DIR = ROOT / "docs" / "examples" / "configs"

SOLVE_CFG = """
mode = solve
output_dir = {out}
grid.n = 48
seed = 11
kernel.type = exponential
kernel.rho = 0.5
signal.type = ou
signal.I0 = 2
signal.gamma = 0.3
signal.sigma = 0.5
"""


# one non-finite value per numeric config key, with the lines that make it used
NON_FINITE_VALUES = [
    ("scenario.q", "nan", ""),
    ("scenario.T", "inf", ""),
    ("scenario.lambda", "inf", ""),
    ("scenario.varrho", "inf", ""),
    ("scenario.phi", "nan", ""),
    ("scenario.h0", "nan", ""),
    ("signal.I0", "nan", "signal.type = ou"),
    ("signal.gamma", "nan", "signal.type = ou"),
    ("signal.sigma", "inf", "signal.type = ou"),
    ("kernel.c", "inf", "kernel.type = fractional"),
    ("kernel.alpha", "nan", "kernel.type = fractional"),
    ("kernel.rho", "inf", "kernel.type = exponential"),
    ("kernel.ell0", "inf", "kernel.type = bounded_power_law"),
    ("kernel.beta", "nan", "kernel.type = bounded_power_law"),
]


# every kernel and signal type: its class and the numeric keys it reads,
# which are its field names, each with a value that is not its default
KERNEL_TYPES = {
    "zero": (ZeroKernel, {}),
    "exponential": (ExponentialKernel, {"c": 1.5, "rho": 0.7}),
    "fractional": (FractionalKernel, {"c": 1.5, "alpha": 0.65}),
    "bounded_power_law": (BoundedPowerLawKernel, {"ell0": 2.0, "beta": 0.8}),
    "tabulated": (TabulatedKernel, {}),
}
SIGNAL_TYPES = {
    "zero": (ZeroSignal, {}),
    "ou": (OUSignal, {"I0": 1.5, "gamma": 0.2, "sigma": 0.4}),
    "tabulated": (TabulatedSignal, {}),
}
CLOSED_FORM_MODELS = [(section, kind) for section, types in
                      (("kernel", KERNEL_TYPES), ("signal", SIGNAL_TYPES))
                      for kind in types if kind != "tabulated"]
SCENARIO_SWEEPS = {"scenario.q", "scenario.lambda", "scenario.varrho", "scenario.phi"}


_NEAR_PAPER_SIGNAL = ("signal.type = ou\nsignal.I0 = 2.001\nsignal.gamma = 0.2999\n"
                      "signal.sigma = 0\n")

# the benchmark's three workloads at full size
WORKLOAD_CONFIGS = {
    "solve_frac_n1000": ("mode = solve\noutput_dir = o\nseed = 7\ngrid.n = 1000\n"
                         "kernel.type = fractional\nkernel.c = 1\nkernel.alpha = 0.55\n"
                         + _NEAR_PAPER_SIGNAL),
    "sweep_bpl_n200": ("mode = sweep\noutput_dir = o\nseed = 7\ngrid.n = 200\n"
                       "kernel.type = bounded_power_law\nkernel.ell0 = 1\n"
                       "sweep.param = kernel.beta\n"
                       "sweep.values = 0.5, 0.75, 1.0, 1.25, 1.5, 2.0, 2.5, 3.0\n"
                       + _NEAR_PAPER_SIGNAL),
    "mc_ou_n200": ("mode = mc\noutput_dir = o\nseed = 7\ngrid.n = 200\n"
                   "kernel.type = exponential\nkernel.c = 1\nkernel.rho = 0.5\n"
                   "signal.type = ou\nsignal.I0 = 2\nsignal.gamma = 0.3\nsignal.sigma = 0.5\n"
                   "mc.n_paths = 2000\nmc.strategies = nystrom, twap\n"),
}

# every shipped config, then every workload config
ALL_CONFIGS = [*sorted(p.name for p in CONFIG_DIR.glob("*.cfg")), *WORKLOAD_CONFIGS]


def row_wise_path_csv(solution, grid):
    """The bytes of path.csv formatted row by row, one repr per value."""
    sp = solution.path
    table = np.column_stack((grid.t, sp.I, solution.forecast_diag, solution.source,
                             sp.u, sp.Q, sp.Z)).tolist()
    lines = ["i,t,I,nu_tt,a,u,Q,Z"]
    lines += [f"{i},{','.join(map(repr, row))}" for i, row in enumerate(table)]
    return ("\n".join(lines) + "\n").encode("utf-8")


def row_wise_csv(header, rows):
    """The bytes of a small table formatted row by row: strings as they
    are, one repr per number."""
    lines = [",".join(header)]
    lines += [",".join(c if isinstance(c, str) else repr(float(c)) for c in row)
              for row in rows]
    return ("\n".join(lines) + "\n").encode("utf-8")


def load_any(config, out):
    """A shipped or workload config, writing into ``out``."""
    if config in WORKLOAD_CONFIGS:
        cfg = parse_config(WORKLOAD_CONFIGS[config])
    else:
        cfg = load_config(CONFIG_DIR / config)
    cfg.output_dir = out
    return cfg


def read_csv(path):
    lines = path.read_text().strip().splitlines()
    header = lines[0].split(",")
    rows = [line.split(",") for line in lines[1:]]
    return header, rows


class TestParsing:
    def test_empty_config_lists_required_keys(self):
        with pytest.raises(ConfigError) as err:
            parse_config("")
        assert "mode" in str(err.value)
        assert "output_dir" in str(err.value)

    def test_unknown_key_reports_line(self):
        text = "mode = solve\noutput_dir = out\nkernel.rhoo = 0.5\n"
        with pytest.raises(ConfigError) as err:
            parse_config(text)
        assert "line 3" in str(err.value)
        assert "kernel.rhoo" in str(err.value)

    def test_duplicate_key_rejected(self):
        text = "mode = solve\nmode = mc\noutput_dir = out\n"
        with pytest.raises(ConfigError, match="duplicate"):
            parse_config(text)

    def test_comments_and_blank_lines_ignored(self):
        cfg = parse_config("# a comment\n\nmode = solve\noutput_dir = out # inline\n")
        assert cfg.mode == "solve"
        assert cfg.output_dir == Path("out")

    def test_shipped_figure1_matches_caption_parameters(self):
        cfg = load_config(CONFIG_DIR / "figure1.cfg")
        s = cfg.scenario
        assert (s.q, s.T, s.lam, s.varrho, s.phi) == (10.0, 10.0, 0.5, 4.0, 0.0)
        assert np.all(s.h0_values(cfg.grid) == 0.0)
        assert [case.label for case in cfg.cases] == ["zero", "exponential", "fractional"]
        assert [type(case.kernel).__name__ for case in cfg.cases] == [
            "ZeroKernel", "ExponentialKernel", "FractionalKernel"]

    def test_defaults_mirror_benchmark_scenario(self):
        cfg = parse_config("mode = solve\noutput_dir = out\n")
        s = cfg.scenario
        assert (s.q, s.T, s.lam, s.varrho, s.phi) == (10.0, 10.0, 0.5, 4.0, 0.0)

    def test_running_penalty_rejected_with_pointer(self):
        text = "mode = solve\noutput_dir = out\nscenario.phi = 0.1\n"
        with pytest.raises(ConfigError, match="oracle"):
            parse_config(text)

    def test_infeasible_lambda_rejected(self):
        text = "mode = solve\noutput_dir = out\nscenario.lambda = 0\n"
        with pytest.raises(ConfigError, match="lam"):
            parse_config(text)

    def test_bad_number_reports_key(self):
        text = "mode = solve\noutput_dir = out\nscenario.q = ten\n"
        with pytest.raises(ConfigError, match="scenario.q"):
            parse_config(text)

    def test_mode_specific_requirements(self):
        with pytest.raises(ConfigError, match="sweep.param"):
            parse_config("mode = sweep\noutput_dir = out\n")
        with pytest.raises(ConfigError, match="mc.n_paths"):
            parse_config("mode = mc\noutput_dir = out\n")
        with pytest.raises(ConfigError, match="compare.kernels"):
            parse_config("mode = compare\noutput_dir = out\n")

    def test_sweep_and_compare_points_built_at_parse_time(self):
        text = ("mode = sweep\noutput_dir = out\nkernel.type = fractional\n"
                "sweep.param = kernel.alpha\nsweep.values = 0.6, 0.75\n")
        cfg = parse_config(text)
        assert [(c.label, c.file_name, c.kernel.alpha) for c in cfg.cases] == [
            ("0.6", "path_kernel_alpha_0p6.csv", 0.6),
            ("0.75", "path_kernel_alpha_0p75.csv", 0.75)]
        cfg = parse_config("mode = compare\noutput_dir = out\n"
                           "compare.kernels = zero, exponential\n")
        assert [c.file_name for c in cfg.cases] == ["path_zero.csv", "path_exponential.csv"]

    def test_invalid_sweep_value_names_its_line(self):
        text = ("mode = sweep\noutput_dir = out\nkernel.type = fractional\n"
                "sweep.param = kernel.alpha\nsweep.values = 0.6, 0.7, 0.3\n")
        with pytest.raises(ConfigError, match="line 5: sweep point kernel.alpha = 0.3: infeasible"):
            parse_config(text)

    def test_unknown_compare_kernel_rejected(self):
        text = "mode = compare\noutput_dir = out\ncompare.kernels = zero, warp\n"
        with pytest.raises(ConfigError, match="line 3: compare point kernel.type = warp"):
            parse_config(text)

    def test_overrides_replace_config_keys(self):
        text = "mode = solve\noutput_dir = out\ngrid.n = 48\nseed = 2\n"
        cfg = parse_config(text, overrides={"grid.n": "24", "output_dir": "elsewhere"})
        assert (cfg.n, cfg.seed, cfg.output_dir) == (24, 2, Path("elsewhere"))
        with pytest.raises(ConfigError, match="override grid.n: .*needs an integer"):
            parse_config(text, overrides={"grid.n": "many"})
        with pytest.raises(ConfigError, match="unknown key or empty value"):
            parse_config(text, overrides={"grid.m": "24"})

    @pytest.mark.parametrize("section, kind", CLOSED_FORM_MODELS,
                             ids=[f"{section}-{kind}" for section, kind in CLOSED_FORM_MODELS])
    def test_closed_form_model_built_from_its_field_keys(self, section, kind):
        cls, params = (KERNEL_TYPES if section == "kernel" else SIGNAL_TYPES)[kind]
        keys = "".join(f"{section}.{name} = {value!r}\n" for name, value in params.items())
        cfg = parse_config(f"mode = solve\noutput_dir = out\n{section}.type = {kind}\n{keys}")
        model = getattr(cfg, section)
        assert type(model) is cls
        assert {f.name: getattr(model, f.name) for f in fields(model)} == params
        assert model == cls(**params)

    @pytest.mark.parametrize("kernel", KERNEL_TYPES)
    @pytest.mark.parametrize("signal", SIGNAL_TYPES)
    def test_sweepable_keys_are_the_scenario_and_model_fields(self, tmp_path, kernel, signal):
        # a tabulated type reads CSV files, no numeric key
        (tmp_path / "ones.csv").write_text("\n".join(["1.0"] * 9) + "\n")
        (tmp_path / "eye.csv").write_text(
            "\n".join(",".join("1" if i == j else "0" for j in range(9)) for i in range(9)))
        base = (f"mode = sweep\noutput_dir = out\ngrid.n = 8\nsweep.values = 0.6\n"
                f"kernel.type = {kernel}\nkernel.csv = ones.csv\nsignal.type = {signal}\n"
                "signal.csv = ones.csv\nsignal.forecast_csv = eye.csv\n")
        accepted = set()
        for key in sorted(cli_mod._KNOWN_KEYS):
            try:
                parse_config(f"{base}sweep.param = {key}\n", base_dir=tmp_path)
            except ConfigError as exc:
                if "not sweepable" in str(exc):
                    continue
            accepted.add(key)
        want = (SCENARIO_SWEEPS | {f"kernel.{name}" for name in KERNEL_TYPES[kernel][1]}
                | {f"signal.{name}" for name in SIGNAL_TYPES[signal][1]})
        assert accepted == want

    def test_unsweepable_parameter_rejected(self):
        # the message lists the keys that this config's kernel and signal read
        for keys, sweepable in [
            ("sweep.param = grid.n",
             "scenario.lambda, scenario.phi, scenario.q, scenario.varrho"),
            ("kernel.type = exponential\nsweep.param = kernel.alpha",
             "kernel.c, kernel.rho, scenario.lambda, scenario.phi, scenario.q, scenario.varrho"),
            ("signal.type = ou\nkernel.type = fractional\nsweep.param = kernel.rho",
             "kernel.alpha, kernel.c, scenario.lambda, scenario.phi, scenario.q, "
             "scenario.varrho, signal.I0, signal.gamma, signal.sigma"),
        ]:
            text = f"mode = sweep\noutput_dir = out\nsweep.values = 0.6, 0.7\n{keys}\n"
            with pytest.raises(ConfigError, match="not sweepable") as err:
                parse_config(text)
            assert str(err.value).endswith(f"; choose one of {sweepable}")


class TestRun:
    def test_solve_outputs_and_objective_roundtrip(self, tmp_path):
        cfg = parse_config(SOLVE_CFG.format(out=tmp_path / "o"))
        files = run(cfg)
        names = {f.name for f in files}
        assert names == {"path.csv", "breakdown.csv"}

        header, rows = read_csv(tmp_path / "o" / "path.csv")
        assert header == ["i", "t", "I", "nu_tt", "a", "u", "Q", "Z"]
        assert len(rows) == 49

        # re-ingest the emitted strategy and reproduce the reported objective
        u = np.array([float(r[header.index("u")]) for r in rows])
        I = np.array([float(r[header.index("I")]) for r in rows])
        grid = cfg.grid
        sp = rollout(u, cfg.scenario, grid, cfg.kernel, signal_values=I)
        bd = evaluate_objective(sp, cfg.scenario, grid, price_path(I, grid))
        _, bd_rows = read_csv(tmp_path / "o" / "breakdown.csv")
        reported = {name: float(val) for name, val in bd_rows}
        assert bd.total == pytest.approx(reported["total"], abs=1e-9 * (1 + abs(bd.total)))
        assert bd.revenue == pytest.approx(reported["revenue"], rel=1e-12)

    def test_byte_identical_reruns(self, tmp_path):
        cfg_a = parse_config(SOLVE_CFG.format(out=tmp_path / "a"))
        cfg_b = parse_config(SOLVE_CFG.format(out=tmp_path / "b"))
        run(cfg_a)
        run(cfg_b)
        for name in ("path.csv", "breakdown.csv"):
            assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()

    @pytest.mark.parametrize("config", ALL_CONFIGS)
    def test_path_csv_matches_the_row_wise_writer(self, tmp_path, monkeypatch, config):
        # column-wise formatting, with shared columns formatted once per run,
        # must write the bytes of one repr per value, row by row
        path_table = cli_mod._path_table
        solved = []

        def recorded_table(name, solution, grid, formatted):
            solved.append((name, solution))
            return path_table(name, solution, grid, formatted)

        monkeypatch.setattr(cli_mod, "_path_table", recorded_table)
        cfg = load_any(config, tmp_path / "o")
        files = run(cfg)
        assert len(solved) == sum(f.name.startswith("path") for f in files)
        for name, solution in solved:
            assert (cfg.output_dir / name).read_bytes() == row_wise_path_csv(solution, cfg.grid)

    @pytest.mark.parametrize("config", ALL_CONFIGS)
    def test_small_tables_match_the_row_wise_writer(self, tmp_path, monkeypatch, config):
        # breakdown.csv, summary.csv and mc_summary.csv from the one columnar
        # writer: the bytes of one repr per number, row by row
        solutions, estimates = [], []
        solve, estimate = cli_mod.solve_scenario_detail, cli_mod.mc_objective
        monkeypatch.setattr(cli_mod, "solve_scenario_detail",
                            lambda *args: solutions.append(solve(*args)) or solutions[-1])
        monkeypatch.setattr(cli_mod, "mc_objective",
                            lambda *args: estimates.append(estimate(*args)) or estimates[-1])
        cfg = load_any(config, tmp_path / "o")
        run(cfg)
        if cfg.mode == "solve":
            bd = solutions[0].path.objective
            name, header = "breakdown.csv", ["component", "value"]
            rows = [(part, getattr(bd, part)) for part in (
                "revenue", "temporary_cost", "transient_cost", "running_penalty",
                "terminal_penalty", "total")]
        elif cfg.mode == "mc":
            assert len(estimates) == len(cfg.mc_strategies)
            name, header = "mc_summary.csv", ["strategy", "mean", "stderr", "n_paths", "seed"]
            rows = [(strategy, est.mean, est.stderr, str(cfg.mc_n_paths), str(cfg.seed))
                    for strategy, est in zip(cfg.mc_strategies, estimates)]
        else:
            assert len(solutions) == len(cfg.cases)
            name = "summary.csv"
            header = (["param", "u0", "Q_T", "total"] if cfg.mode == "sweep"
                      else ["kernel", "u0", "Q_T", "Z_T", "total"])
            values = [{"u0": sol.path.u[0], "Q_T": sol.path.Q[-1], "Z_T": sol.path.Z[-1],
                       "total": sol.path.objective.total} for sol in solutions]
            rows = [(case.label, *(v[column] for column in header[1:]))
                    for case, v in zip(cfg.cases, values)]
        assert (cfg.output_dir / name).read_bytes() == row_wise_csv(header, rows)

    def test_shared_columns_are_formatted_once_per_run(self, tmp_path, monkeypatch):
        # figure2 compares three kernels on one OU path: t, I and nu_tt are
        # the same in every file, a, u, Q and Z differ, and the summary's
        # four numeric columns u0, Q_T, Z_T and total are formatted once each
        calls = []
        format_column = cli_mod._format_column
        monkeypatch.setattr(cli_mod, "_format_column",
                            lambda values: calls.append(1) or format_column(values))
        cfg = load_config(CONFIG_DIR / "figure2.cfg")
        cfg.output_dir = tmp_path / "o"
        run(cfg)
        assert len(calls) == 3 + 4 * len(cfg.cases) + 4

    def test_mc_byte_identical_reruns(self, tmp_path):
        text = ("mode = mc\noutput_dir = {out}\ngrid.n = 24\nseed = 3\n"
                "signal.type = ou\nmc.n_paths = 40\n")
        run(parse_config(text.format(out=tmp_path / "a")))
        run(parse_config(text.format(out=tmp_path / "b")))
        summary = "mc_summary.csv"
        assert (tmp_path / "a" / summary).read_bytes() == (tmp_path / "b" / summary).read_bytes()

    @pytest.mark.parametrize("strategies", ["nystrom", "twap", "nystrom, twap"])
    def test_mc_simulates_once_per_run(self, tmp_path, monkeypatch, strategies):
        calls = []

        def counted(*args, **kwargs):
            calls.append(None)
            return simulate_signal(*args, **kwargs)

        for module in (cli_mod, signals_mod, oracle_mod, nystrom_mod):
            monkeypatch.setattr(module, "simulate_signal", counted)
        run(parse_config(f"mode = mc\noutput_dir = {tmp_path / 'm'}\ngrid.n = 24\n"
                         f"signal.type = ou\nmc.n_paths = 40\nmc.strategies = {strategies}\n"))
        assert len(calls) == 1

    def test_mc_rows_do_not_depend_on_the_other_strategies(self, tmp_path):
        text = ("mode = mc\noutput_dir = {out}\ngrid.n = 24\nseed = 3\n"
                "kernel.type = exponential\nsignal.type = ou\nmc.n_paths = 40\n"
                "mc.strategies = {strategies}\n")
        lines = {}
        for strategies in ("nystrom, twap", "twap, nystrom", "nystrom", "twap"):
            out = tmp_path / strategies.replace(", ", "_")
            run(parse_config(text.format(out=out, strategies=strategies)))
            lines[strategies] = (out / "mc_summary.csv").read_text().splitlines()[1:]
        assert lines["nystrom"] + lines["twap"] == lines["nystrom, twap"]
        assert lines["twap"] + lines["nystrom"] == lines["twap, nystrom"]

    def test_sweep_outputs(self, tmp_path):
        text = f"""
mode = sweep
output_dir = {tmp_path / 's'}
grid.n = 32
scenario.T = 1
scenario.varrho = 2
kernel.type = fractional
sweep.param = kernel.alpha
sweep.values = 0.6, 0.8
"""
        files = run(parse_config(text))
        names = sorted(f.name for f in files)
        assert "summary.csv" in names
        assert len([n for n in names if n.startswith("path_")]) == 2
        header, rows = read_csv(tmp_path / "s" / "summary.csv")
        assert header == ["param", "u0", "Q_T", "total"]
        assert [float(r[0]) for r in rows] == [0.6, 0.8]

    def test_compare_outputs_share_signal_path(self, tmp_path):
        text = f"""
mode = compare
output_dir = {tmp_path / 'c'}
grid.n = 32
seed = 9
compare.kernels = zero, exponential
signal.type = ou
"""
        run(parse_config(text))
        header, rows = read_csv(tmp_path / "c" / "summary.csv")
        assert header == ["kernel", "u0", "Q_T", "Z_T", "total"]
        assert [r[0] for r in rows] == ["zero", "exponential"]
        ha, za = read_csv(tmp_path / "c" / "path_zero.csv")
        hb, zb = read_csv(tmp_path / "c" / "path_exponential.csv")
        i_col = ha.index("I")
        assert [r[i_col] for r in za] == [r[i_col] for r in zb]

    def test_mc_outputs(self, tmp_path):
        text = f"""
mode = mc
output_dir = {tmp_path / 'm'}
grid.n = 24
seed = 3
kernel.type = exponential
signal.type = ou
mc.n_paths = 40
"""
        run(parse_config(text))
        header, rows = read_csv(tmp_path / "m" / "mc_summary.csv")
        assert header == ["strategy", "mean", "stderr", "n_paths", "seed"]
        table = {r[0]: [float(x) for x in r[1:]] for r in rows}
        assert set(table) == {"nystrom", "twap"}
        assert table["nystrom"][2] == 40 and table["nystrom"][3] == 3
        # same paths, adaptive strategy should not lose
        assert table["nystrom"][0] >= table["twap"][0] - 2 * (table["nystrom"][1] + table["twap"][1])

    def test_tabulated_kernel_from_csv(self, tmp_path):
        grid = TimeGrid.uniform(10.0, 16)
        values = np.exp(-0.5 * grid.t)
        csv = tmp_path / "h.csv"
        csv.write_text("H\n" + "\n".join(repr(float(v)) for v in values) + "\n")
        text = f"""
mode = solve
output_dir = {tmp_path / 't'}
grid.n = 16
kernel.type = tabulated
kernel.csv = {csv}
"""
        files = run(parse_config(text))
        assert {f.name for f in files} == {"path.csv", "breakdown.csv"}

    def test_tabulated_kernel_length_mismatch(self, tmp_path):
        csv = tmp_path / "h.csv"
        csv.write_text("\n".join(["1.0"] * 5) + "\n")
        text = f"mode = solve\noutput_dir = o\ngrid.n = 16\nkernel.type = tabulated\nkernel.csv = {csv}\n"
        with pytest.raises(ConfigError, match="grid needs 17"):
            parse_config(text)

    @pytest.mark.parametrize("key, context", [
        ("signal.csv", "signal.type = tabulated\nsignal.forecast_csv = zeros.csv"),
        ("scenario.h0_csv", ""),
    ], ids=["signal.csv", "scenario.h0_csv"])
    def test_grid_csv_length_mismatch(self, tmp_path, key, context):
        (tmp_path / "short.csv").write_text("\n".join(["1.0"] * 5) + "\n")
        (tmp_path / "zeros.csv").write_text("\n".join([",".join(["0"] * 17)] * 17) + "\n")
        text = f"mode = solve\noutput_dir = o\ngrid.n = 16\n{context}\n{key} = short.csv\n"
        with pytest.raises(ConfigError, match=f"{key} has 5 values, grid needs 17"):
            parse_config(text, base_dir=tmp_path)


def tabulated_signal_config(tmp_path, mode, extra=""):
    """A run on a tabulated signal path with no forecast matrix."""
    (tmp_path / "signal.csv").write_text("\n".join(["1.0"] * 9) + "\n")
    cfg = tmp_path / "tabulated.cfg"
    cfg.write_text(f"mode = {mode}\noutput_dir = {tmp_path / 'o'}\ngrid.n = 8\n"
                   f"signal.type = tabulated\nsignal.csv = signal.csv\n{extra}\n")
    return cfg


# the shipped tabulated config and the CSVs it reads, in the order it reads them
TABULATED_FILES = ["tabulated.cfg", "tabulated/h0.csv", "tabulated/kernel.csv",
                   "tabulated/signal.csv", "tabulated/forecast.csv"]


def tabulated_copy(tmp_path, name, prefix):
    """The shipped tabulated config and its CSVs, copied into ``tmp_path``:
    the grid CSVs without their header rows, and the file ``name`` preceded
    by the bytes ``prefix``."""
    for rel in TABULATED_FILES:
        data = (CONFIG_DIR / rel).read_bytes()
        if rel.endswith(("h0.csv", "kernel.csv", "signal.csv")):
            data = data.split(b"\n", 1)[1]
        (tmp_path / rel).parent.mkdir(parents=True, exist_ok=True)
        (tmp_path / rel).write_bytes((prefix if rel == name else b"") + data)
    return tmp_path / "tabulated.cfg"


def solve_cfg_with(tmp_path, mode, keys):
    """SOLVE_CFG in ``mode`` with each key of ``keys`` set to its value, and
    mc.n_paths = 4 in mc; a new kernel.type drops the keys of SOLVE_CFG's
    kernel."""
    text = SOLVE_CFG.format(out=tmp_path / "o").replace("mode = solve", f"mode = {mode}")
    dropped = ("kernel.", *keys) if "kernel.type" in keys else tuple(keys)
    text = "\n".join(line for line in text.splitlines() if not line.startswith(dropped))
    if mode == "mc":
        text += "\nmc.n_paths = 4"
    cfg = tmp_path / "scenario.cfg"
    cfg.write_text(text + "\n" + "".join(f"{key} = {value}\n" for key, value in keys.items()))
    return cfg


def nonconcave_kernel_config(tmp_path, lam, mode="solve", extra=""):
    """Grid values 1 on [0, 0.5) and -0.6 after, T = 10, n = 50: a kernel whose
    discrete objective is concave at lambda = 0.5 and not at lambda = 0.05."""
    t = np.linspace(0.0, 10.0, 51)
    values = np.where(t < 0.5, 1.0, -0.6)
    (tmp_path / "kernel.csv").write_text("\n".join(map(repr, values.tolist())) + "\n")
    cfg = tmp_path / "nonconcave.cfg"
    cfg.write_text(f"mode = {mode}\noutput_dir = {tmp_path / 'o'}\ngrid.n = 50\n"
                   f"scenario.lambda = {lam}\nkernel.type = tabulated\nkernel.csv = kernel.csv\n"
                   f"{extra}\n")
    return cfg


class TestMain:
    def test_nonconcave_tabulated_kernel_exits_2(self, tmp_path, capsys):
        assert main(["--config", str(nonconcave_kernel_config(tmp_path, 0.05))]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error:") and "not strictly concave" in err
        assert "scenario.lambda = 0.05" in err and "grid step 1" in err
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("mode, keys, where", [
        ("solve", "kernel.type = fractional", ""),
        ("compare", "compare.kernels = zero, fractional", "compare point fractional: "),
    ], ids=["solve", "compare"])
    def test_nonconcave_closed_form_kernel_exits_2(self, tmp_path, capsys, mode, keys, where):
        # the fractional kernel at the default lambda = 0.5 is not concave below n = 60
        cfg = tmp_path / "frac.cfg"
        cfg.write_text(f"mode = {mode}\noutput_dir = {tmp_path / 'o'}\ngrid.n = 40\n{keys}\n")
        assert main(["--config", str(cfg)]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"config error: {where}kernel.type = fractional: ")
        assert "not strictly concave" in err and "grid step 2 " in err
        assert not (tmp_path / "o").exists()

    def test_nonconcave_sweep_point_exits_2_before_any_output(self, tmp_path, capsys):
        extra = "sweep.param = scenario.lambda\nsweep.values = 0.5, 0.05"
        cfg = nonconcave_kernel_config(tmp_path, 0.5, "sweep", extra)
        # each point replaces the swept key, which the config leaves at its default
        cfg.write_text(cfg.read_text().replace("scenario.lambda = 0.5\n", ""))
        assert main(["--config", str(cfg)]) == 2
        err = capsys.readouterr().err
        assert "sweep point 0.05" in err and "not strictly concave" in err
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("lam, mode, extra", [
        (0.5, "solve", ""),
        (0.05, "mc", "mc.n_paths = 4\nmc.strategies = twap"),
    ], ids=["concave", "twap-only-mc"])
    def test_tabulated_kernel_runs_where_nothing_is_nonconcave(self, tmp_path, lam, mode, extra):
        assert main(["--config", str(nonconcave_kernel_config(tmp_path, lam, mode, extra))]) == 0

    @pytest.mark.parametrize("mode, extra", [
        ("solve", ""),
        ("sweep", "sweep.param = scenario.q\nsweep.values = 5, 10"),
        ("compare", "compare.kernels = zero, exponential"),
        ("mc", "mc.n_paths = 4"),
        ("mc", "mc.n_paths = 4\nmc.strategies = nystrom"),
    ], ids=["solve", "sweep", "compare", "mc", "mc-nystrom"])
    def test_tabulated_signal_without_forecast_exits_2(self, tmp_path, capsys, mode, extra):
        cfg = tabulated_signal_config(tmp_path, mode, extra)
        assert main(["--config", str(cfg)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error:") and "signal.forecast_csv" in err
        assert not (tmp_path / "o").exists()

    def test_twap_only_mc_replays_tabulated_signal(self, tmp_path):
        cfg = tabulated_signal_config(tmp_path, "mc", "mc.n_paths = 4\nmc.strategies = twap")
        assert main(["--config", str(cfg)]) == 0
        assert (tmp_path / "o" / "mc_summary.csv").exists()

    def test_missing_config_file_is_config_error(self, tmp_path, capsys):
        code = main(["--config", str(tmp_path / "nope.cfg")])
        assert code == 2
        assert "config error" in capsys.readouterr().err

    def test_invalid_sweep_value_exits_2_before_any_output(self, tmp_path, capsys):
        # the first two points are valid: none of them may be solved or written
        cfg = tmp_path / "sweep.cfg"
        cfg.write_text(f"mode = sweep\noutput_dir = {tmp_path / 'o'}\ngrid.n = 16\n"
                       "kernel.type = fractional\nsweep.param = kernel.alpha\n"
                       "sweep.values = 0.6, 0.7, 0.3\n")
        assert main(["--config", str(cfg)]) == 2
        assert "kernel.alpha = 0.3" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("mode, keys, repeated", [
        ("sweep",
         "kernel.type = fractional\nsweep.param = kernel.alpha\nsweep.values = 0.6, 0.60, 0.7",
         "line 5: repeated sweep point kernel.alpha = 0.6"),
        ("compare", "compare.kernels = zero, zero",
         "line 3: repeated compare point kernel.type = zero"),
        # the same estimate twice would write two identical rows
        ("mc", "mc.n_paths = 4\nmc.strategies = nystrom, twap, nystrom",
         "line 4: repeated mc strategy nystrom"),
    ], ids=["sweep", "compare", "mc"])
    def test_repeated_point_exits_2_before_any_output(self, tmp_path, capsys, mode, keys,
                                                      repeated):
        text = f"mode = {mode}\noutput_dir = {tmp_path / 'o'}\n{keys}\n"
        with pytest.raises(ConfigError, match=repeated):
            parse_config(text)
        cfg = tmp_path / "repeat.cfg"
        cfg.write_text(text)
        assert main(["--config", str(cfg)]) == 2
        assert capsys.readouterr().err == f"config error: {repeated}\n"
        assert not (tmp_path / "o").exists()

    def test_sweep_of_a_key_the_model_does_not_read_exits_2(self, tmp_path, capsys):
        # kernel.alpha is no field of the exponential kernel: every point would
        # solve the same model and write the same summary row
        cfg = tmp_path / "sweep.cfg"
        cfg.write_text(f"mode = sweep\noutput_dir = {tmp_path / 'o'}\ngrid.n = 16\n"
                       "kernel.type = exponential\nsweep.param = kernel.alpha\n"
                       "sweep.values = 0.6, 0.7\n")
        assert main(["--config", str(cfg)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error: sweep.param 'kernel.alpha' is not sweepable; ")
        assert err.count("\n") == 1
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("mode, keys, unread", [
        ("solve", "kernel.type = exponential\nkernel.alpha = 0.3",
         "line 4: key 'kernel.alpha' is not read by kernel.type exponential"),
        ("solve", "signal.type = ou\nsignal.forecast_csv = eye.csv",
         "line 4: key 'signal.forecast_csv' is not read by signal.type ou"),
        ("solve", "kernel.type = zero\nkernel.csv = ones.csv",
         "line 4: key 'kernel.csv' is not read by kernel.type zero"),
        ("mc", "mc.n_paths = 4\nsignal.type = zero\nsignal.gamma = 0.3",
         "line 5: key 'signal.gamma' is not read by signal.type zero"),
        ("mc", "mc.n_paths = 4\nmc.strategies = twap\nkernel.type = fractional\n"
               "kernel.rho = 0.5",
         "line 6: key 'kernel.rho' is not read by kernel.type fractional"),
        ("sweep", "kernel.type = exponential\nkernel.ell0 = 2\nsweep.param = scenario.q\n"
                  "sweep.values = 5, 10",
         "line 4: key 'kernel.ell0' is not read by kernel.type exponential"),
        # compare reads the keys of every kernel it compares, and no others
        ("compare", "compare.kernels = zero, exponential, fractional\nkernel.rho = 0.5\n"
                    "kernel.alpha = 0.55\nkernel.beta = 2",
         "line 6: key 'kernel.beta' is not read by kernel.type zero or exponential or "
         "fractional"),
        ("compare", "compare.kernels = zero, exponential\nkernel.alpha = 0.55",
         "line 4: key 'kernel.alpha' is not read by kernel.type zero or exponential"),
        ("compare", "compare.kernels = zero, exponential\nsignal.sigma = 0.5",
         "line 4: key 'signal.sigma' is not read by signal.type zero"),
    ], ids=["solve-kernel", "solve-forecast-csv", "solve-kernel-csv", "mc-signal",
            "mc-twap-kernel", "sweep", "compare-kernel", "compare-kernel-2", "compare-signal"])
    def test_key_the_configured_type_does_not_read_exits_2(self, tmp_path, capsys, mode,
                                                           keys, unread):
        # such a key used to be ignored: the run exited 0 with the key unused
        text = f"mode = {mode}\noutput_dir = {tmp_path / 'o'}\n{keys}\n"
        with pytest.raises(ConfigError, match=unread):
            parse_config(text, base_dir=tmp_path)
        cfg = tmp_path / "unread.cfg"
        cfg.write_text(text)
        assert main(["--config", str(cfg)]) == 2
        assert capsys.readouterr().err == f"config error: {unread}\n"
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("mode, keys, unread", [
        ("solve", "sweep.param = scenario.q\nsweep.values = 1, 2",
         "line 3: key 'sweep.param' is not read by mode solve"),
        ("solve", "compare.kernels = zero, exponential",
         "line 3: key 'compare.kernels' is not read by mode solve"),
        ("solve", "mc.n_paths = 4", "line 3: key 'mc.n_paths' is not read by mode solve"),
        ("sweep", "sweep.param = scenario.q\nsweep.values = 5, 10\nmc.strategies = twap",
         "line 5: key 'mc.strategies' is not read by mode sweep"),
        ("compare", "compare.kernels = zero, exponential\nsweep.values = 5, 10",
         "line 4: key 'sweep.values' is not read by mode compare"),
        ("mc", "mc.n_paths = 4\ncompare.kernels = zero",
         "line 4: key 'compare.kernels' is not read by mode mc"),
        ("solve", "grid.n = 8\nscenario.h0 = 5\nscenario.h0_csv = h0.csv",
         "line 4: key 'scenario.h0' is not read by a scenario that sets scenario.h0_csv"),
        # each compare point sets kernel.type, and each sweep point the swept
        # key, so the config's own value is never read, even one that no
        # model accepts
        ("compare", "grid.n = 64\ncompare.kernels = zero, fractional\nkernel.type = exponential",
         "line 5: key 'kernel.type' is not read by mode compare"),
        ("compare", "grid.n = 64\ncompare.kernels = zero, fractional\n"
                    "kernel.type = exponential\nkernel.rho = -1",
         "line 5: key 'kernel.type' is not read by mode compare"),
        ("sweep", "kernel.type = bounded_power_law\nsweep.param = kernel.beta\n"
                  "sweep.values = 0.5, 1\nkernel.beta = 2",
         "line 6: key 'kernel.beta' is not read by a sweep over kernel.beta"),
        ("sweep", "kernel.type = bounded_power_law\nsweep.param = kernel.beta\n"
                  "sweep.values = 0.5, 1\nkernel.beta = -2",
         "line 6: key 'kernel.beta' is not read by a sweep over kernel.beta"),
    ], ids=["solve-sweep", "solve-compare", "solve-mc", "sweep-mc", "compare-sweep",
            "mc-compare", "h0-and-h0-csv", "compare-kernel-type",
            "compare-kernel-type-infeasible", "sweep-swept-key", "sweep-swept-key-infeasible"])
    def test_key_the_run_does_not_read_exits_2(self, tmp_path, capsys, mode, keys, unread):
        # such a key used to be ignored: the run exited 0 with the key unused
        (tmp_path / "h0.csv").write_text("0.5\n" * 9)
        cfg = tmp_path / "unread.cfg"
        cfg.write_text(f"mode = {mode}\noutput_dir = {tmp_path / 'o'}\n{keys}\n")
        assert main(["--config", str(cfg)]) == 2
        assert capsys.readouterr().err == f"config error: {unread}\n"
        assert not (tmp_path / "o").exists()

    def test_swept_key_matches_exactly(self, tmp_path):
        # kernel.c is a prefix of kernel.csv, which a sweep over kernel.c
        # leaves to the kernel type's own check
        cfg = parse_config("mode = sweep\noutput_dir = out\nkernel.type = exponential\n"
                           "sweep.param = kernel.c\nsweep.values = 1, 2\n")
        assert [case.kernel.c for case in cfg.cases] == [1.0, 2.0]
        with pytest.raises(ConfigError, match="line 6: key 'kernel.csv' is not read by "
                                              "kernel.type exponential"):
            parse_config("mode = sweep\noutput_dir = out\nkernel.type = exponential\n"
                         "sweep.param = kernel.c\nsweep.values = 1, 2\nkernel.csv = h.csv\n")

    @pytest.mark.parametrize("mode, keys, error", [
        ("solve", "grid.n = 8\nbogus", "line 4: expected 'key = value', got 'bogus'"),
        ("solve", "grid.n = 8\nseed =", "line 4: empty key or value in 'seed ='"),
        ("solve", "grid.n = 8\n= 5", "line 4: empty key or value in '= 5'"),
        ("solve", "grid.n = 2\nscenario.h0_csv = words.csv", "non-numeric entry in "),
        ("solve", "grid.n = 2\nsignal.type = tabulated\nsignal.csv = ones.csv\n"
                  "signal.forecast_csv = ragged.csv", "cannot parse matrix from "),
        ("solve", "grid.n = 2\nsignal.type = tabulated\nsignal.csv = ones.csv\n"
                  "signal.forecast_csv = empty.csv", "empty.csv: no data row"),
        ("solve", "grid.n = 2\nsignal.type = tabulated\nsignal.csv = ones.csv\n"
                  "signal.forecast_csv = comments.csv", "comments.csv: no data row"),
        ("solve", "grid.n = 8\nkernel.type = tabulated",
         "kernel.type = tabulated requires kernel.csv"),
        ("solve", "grid.n = 1", "grid.n must be >= 2, got 1"),
        ("solve", "seed = -1", "seed must be >= 0, got -1"),
        ("sweep", "sweep.param = scenario.q\nsweep.values = 5, ten",
         "sweep.values must be a comma list of numbers: "),
        ("mc", "mc.n_paths = 1", "mc.n_paths must be >= 2, got 1"),
        ("mc", "mc.n_paths = 4\nmc.strategies = nystrom, vwap",
         "unknown mc strategy 'vwap'; expected nystrom or twap"),
    ], ids=["no-equals", "empty-value", "empty-key", "grid-csv-word", "forecast-csv-ragged",
            "forecast-csv-empty", "forecast-csv-comments", "tabulated-kernel-no-csv",
            "grid-n-1", "seed-negative", "sweep-values-word", "mc-one-path",
            "mc-unknown-strategy"])
    def test_config_fault_exits_2_before_any_output(self, tmp_path, capsys, mode, keys, error):
        (tmp_path / "words.csv").write_text("0.5\nhalf\n0.5\n")
        (tmp_path / "ones.csv").write_text("1\n1\n1\n")
        (tmp_path / "ragged.csv").write_text("0,0,0\n0,0\n0,0,0\n")
        # no data row: np.loadtxt would only warn, and read an empty array
        (tmp_path / "empty.csv").write_text("")
        (tmp_path / "comments.csv").write_text("# forecasts\n\n# none yet\n")
        cfg = tmp_path / "fault.cfg"
        cfg.write_text(f"mode = {mode}\noutput_dir = {tmp_path / 'o'}\n{keys}\n")
        assert main(["--config", str(cfg)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error: ") and err.count("\n") == 1
        assert error in err
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("name", TABULATED_FILES)
    def test_input_that_is_not_utf8_exits_2_naming_the_file(self, tmp_path, capsys, name):
        # a byte that no UTF-8 text holds, at the start of each file in turn
        cfg = tabulated_copy(tmp_path, name, b"\xff")
        assert main(["--config", str(cfg), "--out", str(tmp_path / "o")]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"config error: cannot read {tmp_path / name}: 'utf-8' codec")
        assert err.count("\n") == 1
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("name", TABULATED_FILES)
    def test_byte_order_mark_is_ignored(self, tmp_path, name):
        # read as text, the mark would make the config's first key unknown
        # and a headerless grid CSV's first value a header
        plain = tabulated_copy(tmp_path / "plain", name, b"")
        marked = tabulated_copy(tmp_path / "marked", name, b"\xef\xbb\xbf")
        assert main(["--config", str(plain), "--out", str(tmp_path / "a")]) == 0
        assert main(["--config", str(marked), "--out", str(tmp_path / "b")]) == 0
        for file in ("path.csv", "breakdown.csv"):
            assert (tmp_path / "a" / file).read_bytes() == (tmp_path / "b" / file).read_bytes()

    def test_every_input_file_is_read_once_by_one_reader(self, tmp_path, monkeypatch):
        read, reader = [], cli_mod._read_text
        monkeypatch.setattr(cli_mod, "_read_text", lambda path: read.append(path) or reader(path))
        cfg = tabulated_copy(tmp_path, None, b"")
        assert main(["--config", str(cfg), "--out", str(tmp_path / "o")]) == 0
        assert read == [tmp_path / name for name in TABULATED_FILES]

    def test_compare_accepts_the_keys_of_every_compared_kernel(self):
        cfg = parse_config("mode = compare\noutput_dir = out\n"
                           "compare.kernels = exponential, fractional, bounded_power_law\n"
                           "kernel.c = 2\nkernel.rho = 0.7\nkernel.alpha = 0.65\n"
                           "kernel.ell0 = 1.5\nkernel.beta = 0.8\n")
        assert [case.kernel for case in cfg.cases] == [
            ExponentialKernel(2.0, 0.7), FractionalKernel(2.0, 0.65),
            BoundedPowerLawKernel(1.5, 0.8)]

    def test_error_under_grid_n_flag_cites_the_file_line(self, tmp_path, capsys):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text(f"mode = solve\noutput_dir = {tmp_path / 'o'}\ngrid.n = 48\n"
                       "kernel.type = exponential\nkernel.rho = fast\n")
        assert main(["--config", str(cfg), "--grid-n", "24"]) == 2
        assert "line 5: key 'kernel.rho'" in capsys.readouterr().err

    def test_output_dir_that_is_a_file_exits_2(self, tmp_path, capsys):
        cfg = tmp_path / "ok.cfg"
        cfg.write_text(SOLVE_CFG.format(out=tmp_path / "afile"))
        (tmp_path / "afile").write_text("not a directory\n")
        assert main(["--config", str(cfg)]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"config error: cannot write output_dir {tmp_path / 'afile'}")
        assert "cannot read" not in err

    def test_bad_config_exits_2(self, tmp_path, capsys):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("mode = warp\noutput_dir = out\n")
        assert main(["--config", str(cfg)]) == 2

    @pytest.mark.parametrize("key, value, context", NON_FINITE_VALUES,
                             ids=[key for key, _, _ in NON_FINITE_VALUES])
    def test_non_finite_value_exits_2(self, tmp_path, capsys, key, value, context):
        cfg = tmp_path / "nonfinite.cfg"
        cfg.write_text(f"mode = solve\noutput_dir = {tmp_path / 'o'}\ngrid.n = 8\n"
                       f"{context}\n{key} = {value}\n")
        assert main(["--config", str(cfg)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error:") and "finite" in err
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("key, rows, context", [
        ("kernel.csv", ["1.0", "nan", "0.5"], "kernel.type = tabulated"),
        ("scenario.h0_csv", ["0.0", "inf", "0.0"], ""),
        ("signal.csv", ["1.0", "nan", "1.0"], "signal.type = tabulated"),
        ("signal.forecast_csv", ["0,0,0", "0,nan,0", "0,0,0"],
         "signal.type = tabulated\nsignal.csv = ones.csv"),
    ], ids=["kernel.csv", "scenario.h0_csv", "signal.csv", "signal.forecast_csv"])
    def test_non_finite_csv_exits_2(self, tmp_path, capsys, key, rows, context):
        (tmp_path / "ones.csv").write_text("1\n1\n1\n")
        (tmp_path / "data.csv").write_text("\n".join(rows) + "\n")
        cfg = tmp_path / "nonfinite.cfg"
        cfg.write_text(f"mode = solve\noutput_dir = {tmp_path / 'o'}\ngrid.n = 2\n"
                       f"{context}\n{key} = data.csv\n")
        assert main(["--config", str(cfg)]) == 2
        assert "finite" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("mode, keys, stage", [
        ("solve", {"signal.sigma": "1e300"}, "objective"),
        # speeds near 1.35e308, whose y = A u on the Schur route overflows
        ("solve", {"signal.I0": "1e308"}, "optimal speeds"),
        ("solve", {"scenario.q": "1e308"}, "source vector"),
        ("mc", {"scenario.q": "1e308"}, "source vector"),
        # the zero kernel stays concave at any lambda > 0; the exponential
        # kernel of SOLVE_CFG is not concave at this lambda and exits 2
        ("solve", {"scenario.lambda": "1e-320", "kernel.type": "zero"}, "singular"),
        ("mc", {"signal.sigma": "1e300"}, "objective"),
    ], ids=["sigma", "I0", "q", "q-mc", "lambda", "sigma-mc"])
    def test_overflowing_scenario_exits_3(self, tmp_path, capsys, mode, keys, stage):
        # finite inputs whose solution overflows double precision: one line
        # on stderr and no output directory, whether numpy's warnings are
        # errors or are shown
        cfg = solve_cfg_with(tmp_path, mode, keys)
        for action in ("error", "always"):
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter(action, RuntimeWarning)
                assert main(["--config", str(cfg)]) == 3
            assert not caught
            err = capsys.readouterr().err
            assert err.startswith("numeric error:") and stage in err
            assert err.count("\n") == 1
            assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("mode, keys", [
        ("sweep", {"kernel.type": "zero", "sweep.param": "scenario.lambda",
                   "sweep.values": "0.5, 1e-320"}),
        ("solve", {"kernel.type": "zero", "scenario.lambda": "1e-320"}),
    ], ids=["sweep", "solve"])
    def test_numeric_error_writes_nothing(self, tmp_path, capsys, mode, keys):
        # the sweep's first point solves; its file must not be written
        # before the second point fails
        cfg = solve_cfg_with(tmp_path, mode, keys)
        assert main(["--config", str(cfg)]) == 3
        assert capsys.readouterr().err.startswith("numeric error: curvature matrix")
        assert not (tmp_path / "o").exists()

    def test_tiny_lambda_with_a_kernel_is_not_concave_exits_2(self, tmp_path, capsys):
        cfg = solve_cfg_with(tmp_path, "solve", {"scenario.lambda": "1e-320"})
        assert main(["--config", str(cfg)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error: kernel.type = exponential:")
        assert "not strictly concave" in err
        assert not (tmp_path / "o").exists()

    def test_coarse_bounded_power_law_cells_solve(self, tmp_path):
        # cells six times wider than ell0, integrated in closed form like any other
        cfg = tmp_path / "coarse.cfg"
        cfg.write_text(f"mode = solve\noutput_dir = {tmp_path / 'o'}\ngrid.n = 2\n"
                       "scenario.T = 6\nkernel.type = bounded_power_law\n"
                       "kernel.ell0 = 0.5\nkernel.beta = 2\n")
        assert main(["--config", str(cfg)]) == 0
        _, rows = read_csv(tmp_path / "o" / "path.csv")
        assert len(rows) == 3 and np.all(np.isfinite(np.array(rows, dtype=float)))

    def test_every_mode_runs_without_scipy(self, tmp_path):
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            p for p in (str(ROOT / "src"), os.environ.get("PYTHONPATH")) if p))
        loaded = subprocess.run(
            [sys.executable, "-c", "import sys, exec_solver; "
             "print([m for m in sys.modules if m.split('.')[0] == 'scipy'])"],
            capture_output=True, text=True, env=env, timeout=120)
        assert loaded.returncode == 0 and loaded.stdout.strip() == "[]"
        configs = {
            # the fractional kernel at lambda = 0.5 is concave from n = 60 on
            "solve": "grid.n = 64\nkernel.type = fractional\nsignal.type = ou",
            "sweep": "grid.n = 16\nkernel.type = exponential\n"
                     "sweep.param = kernel.rho\nsweep.values = 0.5, 1",
            "compare": "grid.n = 64\ncompare.kernels = zero, exponential, fractional, "
                       "bounded_power_law",
            "mc": "grid.n = 16\nkernel.type = exponential\nsignal.type = ou\nmc.n_paths = 8",
        }
        paths = []
        for mode, keys in configs.items():
            cfg = tmp_path / f"{mode}.cfg"
            cfg.write_text(f"mode = {mode}\noutput_dir = {tmp_path / mode}\n{keys}\n")
            paths.append(str(cfg))
        # a None entry in sys.modules makes every import of scipy fail
        script = ("import sys; sys.modules['scipy'] = None; from exec_solver import cli; "
                  "print([cli.main(['--config', c]) for c in sys.argv[1:]])")
        done = subprocess.run([sys.executable, "-c", script, *paths],
                              capture_output=True, text=True, env=env, timeout=120)
        assert done.returncode == 0, done.stderr
        assert done.stdout.splitlines()[-1] == "[0, 0, 0, 0]"

    def test_fast_mean_reversion_solves_silently(self, tmp_path):
        # gamma T = 1000: a difference of exponentials overflows exp() above the diagonal
        cfg = tmp_path / "fast.cfg"
        cfg.write_text(f"mode = solve\noutput_dir = {tmp_path / 'o'}\n"
                       "signal.type = ou\nsignal.gamma = 100\n")
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            p for p in (str(ROOT / "src"), os.environ.get("PYTHONPATH")) if p))
        done = subprocess.run(
            [sys.executable, "-W", "error::RuntimeWarning", "-m", "exec_solver.cli",
             "--config", str(cfg)], capture_output=True, text=True, env=env, timeout=120)
        assert done.returncode == 0
        assert done.stderr == ""
        assert (tmp_path / "o" / "path.csv").exists()

    def test_numeric_error_exits_3(self, tmp_path, capsys, monkeypatch):
        cfg = tmp_path / "ok.cfg"
        cfg.write_text(SOLVE_CFG.format(out=tmp_path / "o"))

        def boom(config):
            raise NumericError("curvature matrix at step 3 is singular")

        monkeypatch.setattr(cli_mod, "run", boom)
        assert main(["--config", str(cfg)]) == 3
        assert "numeric error" in capsys.readouterr().err

    def test_successful_run_prints_files(self, tmp_path, capsys):
        cfg = tmp_path / "ok.cfg"
        cfg.write_text(SOLVE_CFG.format(out=tmp_path / "o"))
        assert main(["--config", str(cfg)]) == 0
        out = capsys.readouterr().out
        assert "path.csv" in out and "breakdown.csv" in out

    def test_flag_overrides(self, tmp_path):
        cfg = tmp_path / "ok.cfg"
        cfg.write_text(SOLVE_CFG.format(out=tmp_path / "ignored"))
        out_dir = tmp_path / "flagged"
        assert main(["--config", str(cfg), "--out", str(out_dir),
                     "--grid-n", "24", "--seed", "5"]) == 0
        header, rows = read_csv(out_dir / "path.csv")
        assert len(rows) == 25  # grid.n = 24 flag applied

    def test_shipped_configs_parse(self):
        for name in ("figure1.cfg", "figure2.cfg", "figure4_alpha.cfg",
                     "figure4_rho.cfg", "mc_benchmark.cfg", "solve_single.cfg",
                     "tabulated.cfg"):
            cfg = load_config(CONFIG_DIR / name)
            assert cfg.mode in ("solve", "sweep", "compare", "mc")

    def test_figure2_positive_signal_buys_early(self, tmp_path):
        # positive expected drift: the strategy starts with purchases
        cfg = load_config(CONFIG_DIR / "figure2.cfg")
        cfg.output_dir = tmp_path / "f2"
        run(cfg)
        header, rows = read_csv(tmp_path / "f2" / "path_exponential.csv")
        u = np.array([float(r[header.index("u")]) for r in rows])
        k = len(u) // 5
        assert u[:k].min() < 0.0
