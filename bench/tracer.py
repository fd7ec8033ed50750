"""Spans around the public functions of each exec_solver module.

The tracer wraps each function at every name a caller looks it up under
(``nystrom`` calls its own binding of ``integrated_increments``, ``cli`` its
binding of ``mc_objective``, and so on) and restores the originals when it
is removed. Spans (name, start, end, parent) stay in memory; self time is a
span's duration minus the time covered by its immediate children.
"""

from __future__ import annotations

import functools
import importlib
from collections import Counter
from pathlib import Path
from time import perf_counter

import numpy as np

LAYERS = ("cli", "kernels", "signals", "nystrom", "model", "oracle")

# (span name, defining module, attribute)
FUNCTIONS = (
    ("cli.parse_config", "cli", "parse_config"),
    ("cli.run", "cli", "run"),
    ("kernels.integrated_increments", "kernels", "integrated_increments"),
    ("signals.simulate_signal", "signals", "simulate_signal"),
    ("signals.forecast_matrix", "signals", "forecast_matrix"),
    ("signals.price_path", "signals", "price_path"),
    ("nystrom.solve_scenario_detail", "nystrom", "solve_scenario_detail"),
    ("nystrom.response_rows", "nystrom", "response_rows"),
    ("model.rollout", "model", "rollout"),
    ("model.evaluate_objective", "model", "evaluate_objective"),
    ("oracle.mc_objective", "oracle", "mc_objective"),
)
ENGINE_METHODS = (
    ("nystrom.NystromEngine.init", "__init__"),
    ("nystrom.NystromEngine.source_vector", "source_vector"),
    ("nystrom.NystromEngine.speed_for_path", "speed_for_path"),
)
SPAN_NAMES = tuple(name for name, *_ in FUNCTIONS) + tuple(name for name, _ in ENGINE_METHODS)
COUNTERS = {
    "kernels.integrated_increments.out_bytes": "bytes",
    "nystrom.NystromEngine.init.held_bytes": "bytes",
    "cli.files_written": "count",
    "cli.bytes_written": "bytes",
    **{f"{layer}.errors": "count" for layer in LAYERS},
}


def _increment_bytes(counters, args, inc):
    counters["kernels.integrated_increments.out_bytes"] += inc.L.nbytes + inc.U.nbytes + inc.LG.nbytes


def _engine_bytes(counters, args, _):
    engine = args[0]
    arrays = [v for v in vars(engine).values() if isinstance(v, np.ndarray)]
    arrays += [engine.inc.L, engine.inc.U, engine.inc.LG]
    counters["nystrom.NystromEngine.init.held_bytes"] += sum(a.nbytes for a in arrays)


def _files_written(counters, args, files):
    counters["cli.files_written"] += len(files)
    counters["cli.bytes_written"] += sum(Path(f).stat().st_size for f in files)


_AFTER = {
    "kernels.integrated_increments": _increment_bytes,
    "nystrom.NystromEngine.init": _engine_bytes,
    "cli.run": _files_written,
}


class Tracer:
    """Installs spans into exec_solver; use as a context manager."""

    def __init__(self):
        self.spans: list[tuple[str, float, float, int]] = []
        self.counters: Counter = Counter()
        self._stack: list[int] = []
        self._restore: list[tuple[object, str, object]] = []

    def _wrap(self, name: str, fn):
        layer = name.split(".", 1)[0]
        after = _AFTER.get(name)
        spans, stack, counters = self.spans, self._stack, self.counters

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = stack[-1] if stack else -1
            index = len(spans)
            spans.append(None)
            stack.append(index)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                counters[f"{layer}.errors"] += 1
                raise
            finally:
                end = perf_counter()
                stack.pop()
                spans[index] = (name, start, end, parent)
            if after is not None:
                after(counters, args, result)
            return result

        return traced

    def _patch(self, owner, attr: str, new) -> None:
        self._restore.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, new)

    def __enter__(self) -> "Tracer":
        modules = [importlib.import_module("exec_solver")]
        modules += [importlib.import_module(f"exec_solver.{layer}") for layer in LAYERS]
        for name, home, attr in FUNCTIONS:
            original = getattr(importlib.import_module(f"exec_solver.{home}"), attr)
            traced = self._wrap(name, original)
            for module in modules:
                if getattr(module, attr, None) is original:
                    self._patch(module, attr, traced)
        engine = importlib.import_module("exec_solver.nystrom").NystromEngine
        for name, attr in ENGINE_METHODS:
            self._patch(engine, attr, self._wrap(name, getattr(engine, attr)))
        return self

    def __exit__(self, *exc) -> None:
        while self._restore:
            owner, attr, original = self._restore.pop()
            setattr(owner, attr, original)

    def reset(self) -> None:
        """Drop recorded spans and counters (the patches stay in place)."""
        self.spans.clear()
        self.counters.clear()


def profile(spans, counters) -> dict:
    """Per-function self time and calls, plus the counters, for one pass."""
    child = [0.0] * len(spans)
    for _, start, end, parent in spans:
        if parent >= 0:
            child[parent] += end - start
    self_s = dict.fromkeys(SPAN_NAMES, 0.0)
    calls = dict.fromkeys(SPAN_NAMES, 0)
    for (name, start, end, _), covered in zip(spans, child):
        self_s[name] += (end - start) - covered
        calls[name] += 1
    out = {}
    for name in SPAN_NAMES:
        out[f"{name}.self_s"] = (self_s[name], "s")
        out[f"{name}.calls"] = (calls[name], "count")
    for name, unit in COUNTERS.items():
        out[name] = (counters.get(name, 0), unit)
    return out
