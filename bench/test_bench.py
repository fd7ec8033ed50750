"""Self-test of the benchmark at tiny sizes: python3 -m pytest bench -q

Every workload runs once, untraced and traced, and must report exactly the
metrics BENCHMARK.json names, with their units. Each output check is fed a
deliberately wrong speed vector and must fail, so no check is vacuous.
"""

import importlib
import json

import numpy as np
import pytest

import common

common.use_checkout_source()

import run  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402
from exec_solver import cli  # noqa: E402
from exec_solver.nystrom import NystromEngine  # noqa: E402
from workloads import WORKLOADS, CheckFailed, render, run_cli  # noqa: E402

SPEC = json.loads((common.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
SEED = 5


def test_spec_names_the_workloads_the_benchmark_runs():
    assert [w["name"] for w in SPEC["workloads"]] == list(WORKLOADS) == list(run.WORKLOAD_NAMES)


@pytest.mark.parametrize("trace", [False, True], ids=["end_to_end", "per_layer"])
@pytest.mark.parametrize("name", list(WORKLOADS))
def test_workload_reports_every_metric_with_its_unit(name, trace):
    result, details = run.measure(name, SEED, seconds=0.01, trace=trace, tiny=True,
                                  setup_repeats=1)
    wanted = {m["name"]: m["unit"] for m in SPEC["per_layer" if trace else "end_to_end"]}
    assert {k: m["unit"] for k, m in result["metrics"].items()} == wanted
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    assert not details["errors"]
    if not trace:
        assert all(m["value"] > 0 for m in result["metrics"].values())
        return
    calls = {k: m["value"] for k, m in result["metrics"].items() if k.endswith(".calls")}
    solves, paths = workloads.counts(details["config"])
    if details["config"]["mode"] == "mc":
        # one engine build plus one cell-integral table per strategy estimate
        assert calls["kernels.integrated_increments.calls"] == 3
        assert calls["signals.forecast_matrix.calls"] == paths
    else:
        assert calls["kernels.integrated_increments.calls"] == 2 * solves
        assert calls["nystrom.solve_scenario_detail.calls"] == solves


def test_tracer_restores_every_binding():
    modules = [importlib.import_module("exec_solver")]
    modules += [importlib.import_module(f"exec_solver.{layer}") for layer in tracer.LAYERS]
    before = [dict(vars(m)) for m in modules] + [dict(vars(NystromEngine))]
    with tracer.Tracer():
        assert NystromEngine.__init__ is not before[-1]["__init__"]
    after = [dict(vars(m)) for m in modules] + [dict(vars(NystromEngine))]
    assert after == before


def _tiny_run(tmp_path, name):
    keys = WORKLOADS[name].config(SEED, tiny=True)
    config = tmp_path / "run.cfg"
    config.write_text(render(keys), encoding="utf-8")
    out = tmp_path / "out"
    code, files = run_cli(config, out)
    assert code == 0
    return keys, out, files


def _scale_speeds(path, factor):
    lines = path.read_text(encoding="utf-8").splitlines()
    col = lines[0].split(",").index("u")
    rows = [line.split(",") for line in lines[1:]]
    for row in rows:
        row[col] = repr(float(row[col]) * factor)
    path.write_text("\n".join([lines[0]] + [",".join(r) for r in rows]) + "\n", encoding="utf-8")


@pytest.mark.parametrize("name", ["solve_frac_n1000", "sweep_bpl_n200"])
def test_check_rejects_speeds_that_do_not_give_the_reported_objective(tmp_path, name):
    keys, out, files = _tiny_run(tmp_path, name)
    assert 0 < WORKLOADS[name].check(keys, out, files) < workloads.GAP_LIMIT
    _scale_speeds(files[0], 0.5)
    with pytest.raises(CheckFailed, match="reported"):
        WORKLOADS[name].check(keys, out, files)


def test_check_rejects_speeds_far_from_the_oracle_optimum(tmp_path):
    keys, out, files = _tiny_run(tmp_path, "solve_frac_n1000")
    cfg = cli.parse_config(render(keys))
    wrong = workloads.read_speeds(files[0]) * 0.5
    # reported consistently, so only the comparison with the oracle can catch it
    with pytest.raises(CheckFailed, match="trails the QP optimum"):
        workloads.speed_gap(cfg, wrong, workloads.oracle_qp(cfg).value(wrong))


def test_check_rejects_speeds_that_beat_a_broken_oracle(tmp_path, monkeypatch):
    keys, out, files = _tiny_run(tmp_path, "solve_frac_n1000")
    monkeypatch.setattr(workloads, "solve_qp", lambda qp: np.zeros(qp.n + 1))
    with pytest.raises(CheckFailed, match="beats the QP optimum"):
        WORKLOADS["solve_frac_n1000"].check(keys, out, files)


def test_mc_check_rejects_a_strategy_that_loses_to_twap(tmp_path, monkeypatch):
    monkeypatch.setattr(NystromEngine, "speed_for_path",
                        lambda self, path, with_source=False: np.zeros(self.grid.n + 1))
    keys, out, files = _tiny_run(tmp_path, "mc_ou_n200")
    with pytest.raises(CheckFailed, match="does not beat TWAP"):
        WORKLOADS["mc_ou_n200"].check(keys, out, files)


def test_mc_check_rejects_speeds_a_bump_can_improve(tmp_path, monkeypatch):
    keys = WORKLOADS["mc_ou_n200"].config(SEED, tiny=True)
    optimal = NystromEngine.speeds_for_paths
    monkeypatch.setattr(NystromEngine, "speeds_for_paths",
                        lambda self, paths: 0.5 * optimal(self, paths))
    with pytest.raises(CheckFailed, match="perturbation"):
        workloads.check_mc_engine(keys, tmp_path)


def test_a_run_that_raises_counts_as_failed(tmp_path, monkeypatch):
    def broken(cfg):
        raise ValueError("numeric escape")

    monkeypatch.setattr(cli, "run", broken)
    config = tmp_path / "run.cfg"
    config.write_text(render(WORKLOADS["sweep_bpl_n200"].config(SEED, tiny=True)), encoding="utf-8")
    assert run_cli(config, tmp_path / "out") == (-1, [])
