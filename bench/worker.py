"""One measuring process of a workload run: a warm-up pass, then timed passes.

    python3 bench/worker.py CONFIG OUT_DIR SECONDS TRACE INDEX [WARM-UP FLAGS...]

Drives ``exec_solver.cli.main`` in process until the next pass would end
after SECONDS of timed work; pass k writes into OUT_DIR/pass-k. With TRACE
= 1 the passes alternate untraced and traced, so the tracing overhead is
measured inside one process, and at least one pass is traced. Worker
INDEX 0 traces the odd passes and worker 1 the even ones, so that drift
from pass to pass cancels in the overhead. Writes OUT_DIR/result.json.
"""

from __future__ import annotations

import contextlib
import json
import resource
import statistics
import sys
import time
from pathlib import Path

import common


def main(argv: list[str]) -> None:
    config, out_root, seconds, trace = Path(argv[0]), Path(argv[1]), float(argv[2]), argv[3] == "1"
    index = int(argv[4])
    common.use_checkout_source()
    from tracer import Tracer, profile
    from workloads import run_cli

    code, _ = run_cli(config, out_root / "warmup", *argv[5:])
    if code != 0:
        raise SystemExit(f"warm-up pass exited with {code}")

    tracer = Tracer() if trace else None
    passes, profiles, spans = [], [], []
    timed = 0.0
    while True:
        out = out_root / f"pass-{len(passes)}"
        traced = trace and (len(passes) + index) % 2 == 1
        if traced:
            tracer.reset()
        with tracer if traced else contextlib.nullcontext():
            start = time.perf_counter()
            code, files = run_cli(config, out)
            elapsed = time.perf_counter() - start
        if traced:
            profiles.append(profile(tracer.spans, tracer.counters))
            spans.append(list(tracer.spans))
        passes.append({"seconds": elapsed, "code": code, "traced": traced, "out": str(out),
                       "files": [str(f) for f in files]})
        timed += elapsed
        ok = [p["seconds"] for p in passes if p["code"] == 0]
        if timed + (statistics.median(ok) if ok else elapsed) > seconds and (profiles or not trace):
            break
    result = {
        "passes": passes,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6,
        "profiles": profiles,
        "spans": spans,
    }
    (out_root / "result.json").write_text(json.dumps(result), encoding="utf-8")


if __name__ == "__main__":
    main(sys.argv[1:])
