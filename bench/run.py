"""Benchmark of the exec-solver CLI; each run measures one workload.

    python3 bench/run.py --workload solve_frac_n1000 --seed 1 --seconds 38 --trace 0
    python3 bench/run.py --workload all --seed 601 --seconds 38 [--save FILE]

A workload run generates its CLI config from ``--seed``. It runs two worker
processes one after another (``bench/worker.py``); each warms up with one
untimed pass and drives ``exec_solver.cli.main`` in process for half of
``--seconds``. Before, between and after the workers it times fresh
interpreters through import and config parsing (``setup_s``). Every pass's
outputs are checked against the QP oracle after the workers end. The last
line of standard output is the result: ``{"correct", "attempted",
"failed", "metrics"}``; with ``--trace 1`` the metrics are the per-layer
profile instead of the end-to-end figures.

``--workload all`` records a baseline: every workload untraced on ten seeds
(``--seed`` upwards) and traced on ``--seed``, each run in its own process.
It prints every metric with its unit and, per workload, the median and
spread of each end-to-end metric, and exits non-zero if any output check
failed.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import common

# Set-up probes per run, taken in WORKERS + 1 equal groups: before each
# worker and after the last, so the median samples the whole run rather
# than the few seconds of one burst. Over five runs, medians of 9 probes
# spread no more than medians of 15 (6.5% against 8.5%), and 9 keep a run
# 2.7 s shorter. Spells of a shared box that last minutes still move the
# median: ten runs spread by 11-33% (quartile distance over median).
SETUP_REPEATS = 9
WORKERS = 2
# run_s is this percentile of the pass times. On a shared box pass times
# switch between a fast and a slow mode for tens of seconds at a time (the
# n = 200 sweep between about 0.33 s and 0.61 s), so a run's median lands
# in either mode, while its upper tail sits in the steadier slow mode. In
# two sets of ten runs the sweep's spread (quartile distance over median)
# was 24% and 29% for the median, 15% and 26% for the 90th percentile, and
# 16% and 19% for the 95th (9% and 7% in two later sets).
RUN_S_PERCENTILE = 95
# Timeouts of one setup probe, one worker, and one workload under --workload all.
PROBE_TIMEOUT_S = 60
WORKER_TIMEOUT_S = 150
CHILD_TIMEOUT_S = 600
WORKLOAD_NAMES = ("solve_frac_n1000", "mc_ou_n200", "sweep_bpl_n200")
# Untraced runs per workload in a baseline, as many as the regression gate
# takes the median of.
BASELINE_RUNS = 10


def setup_seconds(config: Path, repeats: int) -> list[float]:
    """Start-to-parsed times of fresh interpreters importing exec_solver."""
    samples = []
    for _ in range(repeats):
        start = time.clock_gettime(time.CLOCK_MONOTONIC)
        done = subprocess.run([sys.executable, str(common.BENCH_DIR / "setup_probe.py"), str(config)],
                              capture_output=True, text=True, check=True,
                              timeout=PROBE_TIMEOUT_S)
        samples.append(float(done.stdout.split()[-1]) - start)
    return samples


def _digest(files) -> str:
    h = hashlib.sha256()
    for f in files:
        h.update(f.name.encode())
        h.update(f.read_bytes())
    return h.hexdigest()


def _percentile(samples: list[float], pct: int) -> float:
    if len(samples) == 1:
        return samples[0]
    return statistics.quantiles(samples, n=100, method="inclusive")[pct - 1]


def _tail_percentile(samples: list[float]):
    """Highest percentile with at least ten samples beyond it, if any."""
    n = len(samples)
    if n < 20:
        return None
    pct = 100 * (n - 10) // n
    return pct, _percentile(samples, pct)


def _blas_threads() -> dict:
    """Threads each loaded OpenBLAS reports (numpy and scipy ship their own)."""
    import ctypes

    import numpy
    import scipy

    out = {}
    for pkg in (numpy, scipy):
        libdir = Path(pkg.__file__).resolve().parent.parent / f"{pkg.__name__}.libs"
        for lib in sorted(libdir.glob("*openblas*")):
            handle = ctypes.CDLL(str(lib))
            for symbol in ("scipy_openblas_get_num_threads64_", "scipy_openblas_get_num_threads",
                           "openblas_get_num_threads64_", "openblas_get_num_threads"):
                if hasattr(handle, symbol):
                    out[f"{pkg.__name__}:{lib.name}"] = getattr(handle, symbol)()
                    break
    return out


def _git(*args: str):
    if shutil.which("git") is None or not (common.ROOT / ".git").exists():
        return None
    done = subprocess.run(["git", *args], cwd=common.ROOT, capture_output=True,
                          text=True, timeout=30)
    return done.stdout.strip() if done.returncode == 0 else None


def environment(blas_threads: int) -> dict:
    import numpy
    import scipy

    sha = _git("rev-parse", "HEAD")
    # dirty means the measured program differs from the commit
    status = _git("status", "--porcelain", "--", "src", "pyproject.toml")
    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "git_sha": sha,
        "git_dirty": None if status is None else bool(status),
        "nproc": common.nproc(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads_requested": blas_threads,
        "blas_threads": _blas_threads(),
        "machine": platform.machine(),
    }


def _verify(workload, keys: dict, passes: list, work: Path) -> tuple[list, list, list]:
    """Check every pass's outputs; returns (good passes, objective gaps, errors).

    Runs after the timed loop. Passes that wrote identical bytes share one
    verdict.
    """
    from workloads import CheckFailed, check_mc_engine

    verdicts, errors = {}, []
    digests = [_digest(files) for _, _, _, files in passes]
    for digest, (_, _, out, files) in zip(digests, passes):
        if digest not in verdicts:
            try:
                verdicts[digest] = workload.check(keys, out, files)
            except CheckFailed as exc:
                verdicts[digest] = None
                errors.append(str(exc))
    good = [p for p, d in zip(passes, digests) if verdicts[d] is not None]
    gaps = [g for g in verdicts.values() if g is not None]
    if keys["mode"] == "mc":
        try:
            gaps = [check_mc_engine(keys, work)]
        except CheckFailed as exc:
            errors.append(str(exc))
            gaps = []
    return good, gaps, errors


def _run_workers(config: Path, work: Path, seconds: float, trace: bool, warmup_flags,
                 setup_repeats: int) -> tuple[list[dict], list[float]]:
    """Run the timed passes in WORKERS fresh processes, one after another.

    Each process gets an equal share of ``seconds``. Pass times can vary
    more between processes than inside one, so a run pools several. The
    set-up probes are split into groups around the workers. Returns
    (worker results, set-up samples).
    """
    results, setup = [], []
    groups = WORKERS + 1
    for k in range(groups):
        setup += setup_seconds(config, setup_repeats // groups + (k < setup_repeats % groups))
        if k == WORKERS:
            break
        out_root = work / f"worker-{k}"
        subprocess.run([sys.executable, str(common.BENCH_DIR / "worker.py"), str(config),
                        str(out_root), repr(seconds / WORKERS), "1" if trace else "0", str(k),
                        *warmup_flags], check=True, timeout=WORKER_TIMEOUT_S)
        results.append(json.loads((out_root / "result.json").read_text(encoding="utf-8")))
    return results, setup


def measure(name: str, seed: int, seconds: float, trace: bool, tiny: bool = False,
            setup_repeats: int = SETUP_REPEATS) -> tuple[dict, dict]:
    """Run one workload; returns (result, details)."""
    from workloads import WORKLOADS, counts, render

    workload = WORKLOADS[name]
    keys = workload.config(seed, tiny)
    solves, paths = counts(keys)
    work = common.WORK_DIR / f"{name}-{seed}-{time.monotonic_ns()}"
    work.mkdir(parents=True)
    try:
        config = work / "run.cfg"
        config.write_text(render(keys), encoding="utf-8")
        results, setup = _run_workers(config, work, seconds, trace, workload.warmup_flags,
                                      setup_repeats)
        # (traced, seconds, out_dir, files) of every pass that exited 0
        passes = [(p["traced"], p["seconds"], Path(p["out"]), [Path(f) for f in p["files"]])
                  for r in results for p in r["passes"] if p["code"] == 0]
        attempted = sum(len(r["passes"]) for r in results)
        good, gaps, errors = _verify(workload, keys, passes, work)
        failed = attempted - len(good)
        if not good or not gaps:
            raise RuntimeError(f"no pass of {name} produced checked outputs: {errors}")
    finally:
        shutil.rmtree(work, ignore_errors=True)

    plain = [p[1] for p in good if not p[0]]
    if trace:
        profiles = [prof for r in results for prof in r["profiles"]]
        metrics = {}
        for key, (_, unit) in profiles[0].items():
            values = [prof[key][0] for prof in profiles]
            value = statistics.median(values) if key.endswith("self_s") else values[-1]
            metrics[key] = {"value": value, "unit": unit}
        traced_s = statistics.median(p[1] for p in good if p[0])
        metrics["trace.overhead_s"] = {"value": traced_s - statistics.median(plain), "unit": "s"}
        spans = [s for r in results for s in r["spans"]]
        metrics["trace.spans"] = {"value": len(spans[-1]), "unit": "count"}
        common.TRACE_DIR.mkdir(exist_ok=True)
        (common.TRACE_DIR / f"{name}-seed{seed}.json").write_text(
            json.dumps({"workload": name, "seed": seed, "passes": spans}), encoding="utf-8")
    else:
        run_s = _percentile(plain, RUN_S_PERCENTILE)
        metrics = {
            "setup_s": {"value": statistics.median(setup), "unit": "s"},
            "run_s": {"value": run_s, "unit": "s"},
            "solves_per_s": {"value": solves / run_s, "unit": "1/s"},
            "paths_per_s": {"value": paths / run_s, "unit": "1/s"},
            "peak_rss_mb": {"value": statistics.median(r["peak_rss_mb"] for r in results),
                            "unit": "MB"},
            "obj_gap_rel": {"value": max(gaps), "unit": "ratio"},
        }
    details = {
        "workload": name,
        "seed": seed,
        "config": keys,
        "trace": trace,
        "setup_s_samples": setup,
        "run_s_samples": plain,
        "run_s_median": statistics.median(plain),
        "run_s_tail": _tail_percentile(plain),
        "worker_run_s": [[p["seconds"] for p in r["passes"]] for r in results],
        "errors": errors,
    }
    result = {"correct": not errors and failed == 0, "attempted": attempted,
              "failed": failed, "metrics": metrics}
    return result, details


def _spread(values: list[float]) -> float:
    """Quartile distance over median, as the regression gate computes it."""
    q = statistics.quantiles(values, n=4)
    return (q[2] - q[0]) / statistics.median(values)


def _run_child(name: str, seed: int, seconds: float, trace: int):
    """One workload run in a child process; returns (details, result) or None."""
    done = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), "--workload", name,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
        capture_output=True, text=True, timeout=CHILD_TIMEOUT_S)
    if done.returncode != 0:
        print(f"{name} seed={seed} trace={trace}: exit {done.returncode}\n{done.stderr}",
              file=sys.stderr)
        return None
    lines = done.stdout.strip().splitlines()
    return json.loads(lines[-2]), json.loads(lines[-1])


def run_all(seed: int, seconds: float, save: str | None) -> int:
    """Every workload untraced on BASELINE_RUNS seeds from ``seed``, then traced on ``seed``.

    Each run is a child process. Prints every metric with its unit, then
    per workload the median and spread of each end-to-end metric.
    """
    report = {"seeds": list(range(seed, seed + BASELINE_RUNS)), "seconds": seconds, "runs": []}
    ok = True
    plan = [(name, s, 0) for s in report["seeds"] for name in WORKLOAD_NAMES]
    plan += [(name, seed, 1) for name in WORKLOAD_NAMES]
    for name, run_seed, trace in plan:
        child = _run_child(name, run_seed, seconds, trace)
        if child is None:
            ok = False
            continue
        details, result = child
        ok = ok and result["correct"]
        report["runs"].append({"details": details, "result": result})
        report["environment"] = details["environment"]
        print(f"== {name} seed={run_seed} trace={trace} correct={result['correct']} "
              f"failed_frac={result['failed'] / result['attempted']:.3g} "
              f"({result['failed']}/{result['attempted']})")
        for metric, m in result["metrics"].items():
            print(f"   {metric:48s} {m['value']:<24.6g} {m['unit']}")
        if not trace:
            tail = details["run_s_tail"]
            print(f"   run_s samples: {len(details['run_s_samples'])}, "
                  f"median = {details['run_s_median']:.6g} s"
                  + (f", p{tail[0]} = {tail[1]:.6g} s" if tail else ""))
    summary = {}
    for name in WORKLOAD_NAMES:
        results = [r["result"] for r in report["runs"]
                   if r["details"]["workload"] == name and not r["details"]["trace"]]
        if not results:
            continue
        summary[name] = {}
        print(f"== {name}: {len(results)} untraced runs, median (spread)")
        for metric, m in results[0]["metrics"].items():
            values = [r["metrics"][metric]["value"] for r in results]
            entry = {"median": statistics.median(values), "unit": m["unit"]}
            if len(values) > 1:
                entry["spread"] = _spread(values)
            summary[name][metric] = entry
            print(f"   {metric:48s} {entry['median']:<14.6g} {m['unit']:6s}"
                  + (f" ({entry['spread']:.1%})" if "spread" in entry else ""))
    report["summary"] = summary
    if save:
        Path(save).write_text(json.dumps(report, indent=1) + "\n", encoding="utf-8")
    return 0 if ok else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=(*WORKLOAD_NAMES, "all"))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=38.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--save", help="with --workload all: write every result to this file")
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")

    threads = common.pin_blas_threads()
    common.use_checkout_source()
    if args.workload == "all":
        return run_all(args.seed, args.seconds, args.save)

    result, details = measure(args.workload, args.seed, args.seconds, bool(args.trace))
    details["environment"] = environment(threads)
    for metric, m in result["metrics"].items():
        print(f"# {metric} = {m['value']!r} {m['unit']}")
    print(json.dumps(details))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
