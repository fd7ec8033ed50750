"""Paths and process settings shared by the benchmark and its set-up probe.

Nothing here imports numpy: the BLAS thread count has to be pinned in the
environment before numpy is first imported.
"""

from __future__ import annotations

import os
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
WORK_DIR = BENCH_DIR / ".work"
TRACE_DIR = BENCH_DIR / ".traces"

_BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def nproc() -> int:
    return len(os.sched_getaffinity(0))


def pin_blas_threads() -> int:
    """Run BLAS on one thread, whatever ``nproc`` is.

    On a 2-core box two OpenBLAS threads made the n = 1000 solve no faster
    (8.8 s either way), the n = 200 sweep slower (1.1 s against 0.7 s) and
    the solve's run-to-run spread wider (14% of the median).
    """
    for var in _BLAS_VARS:
        os.environ[var] = "1"
    return 1


def use_checkout_source() -> None:
    """Import ``exec_solver`` from this checkout's ``src``, never an installed copy."""
    if not (SRC / "exec_solver" / "__init__.py").is_file():
        raise SystemExit(f"benchmark error: no exec_solver sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import exec_solver

    if Path(exec_solver.__file__).resolve().parent != SRC / "exec_solver":
        raise SystemExit(f"benchmark error: exec_solver imported from {exec_solver.__file__}")
