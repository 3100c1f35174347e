#!/usr/bin/env python3
"""Time one fresh process's set-up: package import plus the first op.

    python3 perfbench/setup_probe.py WORKLOAD SEED WORKDIR

Prints the seconds from just before ``import iout_wakeup`` to the end of
the first op.  ``run.py`` starts it several times and reports the median
as ``setup_s``.
"""

import sys
from pathlib import Path
from time import perf_counter

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import gen  # noqa: E402  (the benchmark's own modules; no package import)
from tracing import NullTracer  # noqa: E402


def main():
    workload, seed, workdir = sys.argv[1], int(sys.argv[2]), sys.argv[3]
    inputs = gen.generate(workload, seed)
    t0 = perf_counter()
    import iout_wakeup  # noqa: F401  (the import is part of what is timed)
    import workloads

    prepare, op, _digest, _verify = workloads.WORKLOADS[workload]
    op(prepare(inputs, workdir), NullTracer())
    print(perf_counter() - t0)


if __name__ == "__main__":
    main()
