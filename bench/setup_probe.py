"""One set-up sample: a fresh interpreter imports exec_solver and parses a config.

Prints CLOCK_MONOTONIC once the config is parsed and validated; the parent
subtracts the instant it started this process. Usage:

    python3 bench/setup_probe.py <config file>
"""

import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from exec_solver import cli  # noqa: E402

cli.load_config(sys.argv[1])
print(repr(time.clock_gettime(time.CLOCK_MONOTONIC)))
