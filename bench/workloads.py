"""Workload definitions and the output checks run against the QP oracle.

Each workload turns a workload seed into one CLI config. The program sees
only that config; the checks re-read what the CLI wrote and compare it with
``exec_solver.oracle``. Checks raise ``CheckFailed``.
"""

from __future__ import annotations

import csv
import io
import random
import traceback
from contextlib import redirect_stdout
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

from exec_solver import cli
from exec_solver.kernels import integrated_increments
from exec_solver.oracle import assemble_qp, perturbation_test, solve_qp
from exec_solver.signals import price_path, simulate_signal

# The solver and the oracle discretise the same objective differently, so the
# written speeds trail the oracle optimum by a discretisation gap: about 1e-4
# of |J| at n = 200..1000 and up to 5% at n = 16. A wrong speed vector (half
# the optimal speed, say) lands far beyond this limit.
GAP_LIMIT = 0.1
# Paths in the perturbation check's sub-batch; with common random numbers the
# worst bump stays more than 10 standard errors inside the pass region.
PERTURBATION_PATHS = 256

SWEEP_BETAS = (0.5, 0.75, 1.0, 1.25, 1.5, 2.0, 2.5, 3.0)


class CheckFailed(Exception):
    """An output of the CLI disagrees with the oracle or with itself."""


def render(keys: dict) -> str:
    return "".join(f"{k} = {v}\n" for k, v in keys.items())


def _near_paper_signal(rng: random.Random) -> dict:
    # A deterministic OU signal within 0.25% of the paper's I0 = 2 and
    # gamma = 0.3. The box is narrow because the relative objective gap, an
    # end-to-end metric, is sensitive to both: at n = 1000 it spans 7.2e-5 to
    # 1.2e-4 over I0 in [1.95, 2.05] and gamma in [0.29, 0.31].
    return {
        "signal.type": "ou",
        "signal.I0": repr(rng.uniform(1.995, 2.005)),
        "signal.gamma": repr(rng.uniform(0.29925, 0.30075)),
        "signal.sigma": "0",
    }


def _solve_config(rng: random.Random, tiny: bool) -> dict:
    # A fractional kernel is not concave on the QP side below n of about 40.
    return {"mode": "solve", "output_dir": "out", "seed": str(rng.randrange(2**31)),
            "grid.n": "64" if tiny else "1000",
            "kernel.type": "fractional", "kernel.c": "1", "kernel.alpha": "0.55",
            **_near_paper_signal(rng)}


def _mc_config(rng: random.Random, tiny: bool) -> dict:
    return {"mode": "mc", "output_dir": "out", "seed": str(rng.randrange(2**31)),
            "grid.n": "16" if tiny else "200",
            "kernel.type": "exponential", "kernel.c": "1", "kernel.rho": "0.5",
            "signal.type": "ou", "signal.I0": "2", "signal.gamma": "0.3",
            "signal.sigma": "0.5",
            "mc.n_paths": "64" if tiny else "2000", "mc.strategies": "nystrom, twap"}


def _sweep_config(rng: random.Random, tiny: bool) -> dict:
    return {"mode": "sweep", "output_dir": "out", "seed": str(rng.randrange(2**31)),
            "grid.n": "16" if tiny else "200",
            "kernel.type": "bounded_power_law", "kernel.ell0": "1",
            "sweep.param": "kernel.beta",
            "sweep.values": ", ".join(repr(b) for b in SWEEP_BETAS),
            **_near_paper_signal(rng)}


def counts(keys: dict) -> tuple[int, int]:
    """(grid solves, signal paths) in one CLI run of ``keys``.

    A grid solve is one pass of the curvature pipeline that ends in speeds;
    mc builds one engine and reuses it for every path.
    """
    if keys["mode"] == "mc":
        return 1, int(keys["mc.n_paths"])
    if keys["mode"] == "sweep":
        points = len(keys["sweep.values"].split(","))
        return points, points
    return 1, 1


def run_cli(config: Path, out_dir: Path, *flags: str) -> tuple[int, list[Path]]:
    """Run the CLI in process; returns its exit code and the files it listed.

    A run that raises counts as failed, like one that exits non-zero.
    """
    buf = io.StringIO()
    try:
        with redirect_stdout(buf):
            code = cli.main(["--config", str(config), "--out", str(out_dir), *flags])
    except Exception:
        traceback.print_exc()
        return -1, []
    return code, [Path(line) for line in buf.getvalue().splitlines()]


@dataclass(frozen=True)
class Workload:
    name: str
    make_config: Callable[[random.Random, bool], dict]
    # CLI flags of the untimed warm-up pass: the solve workload warms up on a
    # small grid because one pass at n = 1000 takes about 9 s.
    warmup_flags: tuple[str, ...] = ()

    def config(self, seed: int, tiny: bool = False) -> dict:
        return self.make_config(random.Random(seed), tiny)

    def check(self, keys: dict, out_dir: Path, files: list[Path]) -> float:
        """Check one run's outputs; returns the largest relative objective gap."""
        return {"solve": check_solve_output, "sweep": check_sweep_output,
                "mc": check_mc_output}[keys["mode"]](keys, out_dir, files)


WORKLOADS = {w.name: w for w in (
    Workload("solve_frac_n1000", _solve_config, warmup_flags=("--grid-n", "100")),
    Workload("mc_ou_n200", _mc_config),
    Workload("sweep_bpl_n200", _sweep_config),
)}


# ---------------------------------------------------------------------------
# output checks

def _read_rows(path: Path) -> list[dict]:
    try:
        with open(path, newline="", encoding="utf-8") as fh:
            return list(csv.DictReader(fh))
    except OSError as exc:
        raise CheckFailed(f"cannot read {path}: {exc}") from exc


def read_speeds(path: Path) -> np.ndarray:
    """The ``u`` column of a path CSV, as written."""
    try:
        return np.array([float(row["u"]) for row in _read_rows(path)])
    except (KeyError, ValueError) as exc:
        raise CheckFailed(f"{path}: unreadable u column: {exc}") from exc


def oracle_qp(cfg: cli.RunConfig):
    """The discrete objective of a deterministic-signal config as a QP."""
    grid, params = cfg.grid, cfg.scenario
    inc = integrated_increments(cfg.kernel, params, grid)
    price = price_path(simulate_signal(cfg.signal, grid, cfg.seed), grid)
    return assemble_qp(params, inc, grid, price)


def speed_gap(cfg: cli.RunConfig, u: np.ndarray, reported_total: float) -> float:
    """Relative gap (J_oracle - J_solver) / |J_oracle| of written speeds.

    The written speeds must reproduce the reported objective under the QP
    oracle's own assembly, may not beat the oracle optimum, and must lie
    within ``GAP_LIMIT`` of it.
    """
    if u.shape != (cfg.n + 1,) or not np.all(np.isfinite(u)):
        raise CheckFailed(f"speed vector has shape {u.shape} or non-finite entries")
    qp = oracle_qp(cfg)
    j_solver = qp.value(u)
    tol = 1e-9 * max(1.0, abs(reported_total))
    if abs(j_solver - reported_total) > tol:
        raise CheckFailed(f"written speeds give J = {j_solver!r}, "
                          f"the CLI reported {reported_total!r}")
    j_oracle = qp.value(solve_qp(qp))
    if j_oracle < j_solver - tol:
        raise CheckFailed(f"solver J = {j_solver!r} beats the QP optimum {j_oracle!r}")
    gap = (j_oracle - j_solver) / abs(j_oracle)
    if gap > GAP_LIMIT:
        raise CheckFailed(f"solver trails the QP optimum by {gap:.3e} of |J|")
    return gap


def _solve_keys(keys: dict) -> dict:
    """The single-solve config behind one point of a sweep or an mc run."""
    out = {k: v for k, v in keys.items() if not k.startswith(("sweep.", "mc."))}
    out["mode"] = "solve"
    return out


def check_solve_output(keys: dict, out_dir: Path, files: list[Path]) -> float:
    expected = [out_dir / "path.csv", out_dir / "breakdown.csv"]
    if files != expected:
        raise CheckFailed(f"solve wrote {files}, expected {expected}")
    totals = {row["component"]: row["value"] for row in _read_rows(files[1])}
    cfg = cli.parse_config(render(keys))
    return speed_gap(cfg, read_speeds(files[0]), float(totals["total"]))


def check_sweep_output(keys: dict, out_dir: Path, files: list[Path]) -> float:
    values = [float(v) for v in keys["sweep.values"].split(",")]
    if len(files) != len(values) + 1 or files[-1] != out_dir / "summary.csv":
        raise CheckFailed(f"sweep wrote {len(files)} files for {len(values)} values")
    summary = _read_rows(files[-1])
    if [float(row["param"]) for row in summary] != values:
        raise CheckFailed("summary.csv does not list the swept values in order")
    gaps = []
    for value, row, path in zip(values, summary, files[:-1]):
        point = _solve_keys(keys)
        point[keys["sweep.param"]] = repr(value)
        cfg = cli.parse_config(render(point))
        gaps.append(speed_gap(cfg, read_speeds(path), float(row["total"])))
    return max(gaps)


def check_mc_summary(keys: dict, summary_csv: Path) -> None:
    rows = {row["strategy"]: row for row in _read_rows(summary_csv)}
    if set(rows) != {"nystrom", "twap"}:
        raise CheckFailed(f"mc_summary.csv lists strategies {sorted(rows)}")
    for row in rows.values():
        if int(row["n_paths"]) != int(keys["mc.n_paths"]):
            raise CheckFailed(f"mc_summary.csv reports {row['n_paths']} paths")
    if not float(rows["nystrom"]["mean"]) > float(rows["twap"]["mean"]):
        raise CheckFailed("the solver's strategy does not beat TWAP on average")


def check_mc_output(keys: dict, out_dir: Path, files: list[Path]) -> float:
    if files != [out_dir / "mc_summary.csv"]:
        raise CheckFailed(f"mc wrote {files}, expected mc_summary.csv only")
    check_mc_summary(keys, files[0])
    return 0.0


def check_mc_engine(keys: dict, work_dir: Path) -> float:
    """Checks of the mc workload that do not depend on one run's outputs.

    The solver's speeds must survive the perturbation test on a sub-batch of
    paths. mc writes no speeds, so the objective gap is taken on the
    deterministic twin of the run: a CLI solve of the same scenario, kernel
    and grid with the signal noise off.
    """
    cfg = cli.parse_config(render(keys))
    report = perturbation_test(cfg.scenario, cfg.kernel, cfg.signal, cfg.grid,
                               n_paths=min(PERTURBATION_PATHS, cfg.mc_n_paths),
                               n_perturbations=3, seed=cfg.seed)
    if not report.passed:
        bad = [r for r in report.rows if not r.ok]
        raise CheckFailed(f"perturbation test: {len(bad)} bumps improve the solver's strategy")
    twin = _solve_keys(keys)
    twin["signal.sigma"] = "0"
    twin_cfg = work_dir / "twin.cfg"
    twin_cfg.write_text(render(twin), encoding="utf-8")
    out = work_dir / "twin"
    code, files = run_cli(twin_cfg, out)
    if code != 0:
        raise CheckFailed(f"the deterministic twin solve exited with {code}")
    return check_solve_output(twin, out, files)
