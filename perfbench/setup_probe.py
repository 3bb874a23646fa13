"""Cold-start probe for setup_s.

    python3 perfbench/setup_probe.py WORKLOAD WORKDIR

Prints the seconds this fresh interpreter spends importing padharm.cli
(which imports every module), validating a RunConfig and building the
workload's contexts, i.e. what every cold CLI call pays before its first
item.
"""

import sys
import time

t0 = time.perf_counter()
import os  # noqa: E402

sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))), "src"))
import padharm.cli  # noqa: E402,F401
from padharm.config import RunConfig  # noqa: E402

import workloads  # noqa: E402

RunConfig({})
workloads.make(sys.argv[1], sys.argv[2]).setup()
print(repr(time.perf_counter() - t0))
