"""Set-up probe: import the package, generate one workload's inputs, and
print the CLOCK_MONOTONIC time at which that finished.

The caller reads the clock just before it starts this interpreter, so the
difference is the set-up time a user pays: interpreter start, imports
(numpy and scipy included) and input generation.

Usage: python3 perfbench/setup_probe.py WORKLOAD SEED
"""

import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

import workloads  # noqa: E402  (needs the src path above)

workloads.make_inputs(sys.argv[1], int(sys.argv[2]))
print(repr(time.monotonic()))
