#!/usr/bin/env python3
"""Record the golden digests of every workload for the default seed.

    python3 perfbench/record_golden.py

Writes ``perfbench/golden.json``.  Run it only when a change is meant to
alter the package's outputs, and say so in the change's description.
"""

import json
import shutil
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import gen  # noqa: E402
import workloads  # noqa: E402
from run import DEFAULT_SEED, OUT_DIR  # noqa: E402
from tracing import NullTracer  # noqa: E402


def main():
    golden = {}
    OUT_DIR.mkdir(exist_ok=True)
    for name, (prepare, op, digest, verify) in workloads.WORKLOADS.items():
        workdir = tempfile.mkdtemp(prefix="golden-", dir=OUT_DIR)
        try:
            ctx = prepare(gen.generate(name, DEFAULT_SEED), workdir)
            raw = op(ctx, NullTracer())
            problems = verify(ctx, raw)
            if problems:
                sys.exit(f"error: {name}: {problems}")
            golden[name] = digest(ctx, raw)
        finally:
            shutil.rmtree(workdir, ignore_errors=True)
    with open(HERE / "golden.json", "w", encoding="utf-8") as fh:
        json.dump(golden, fh, indent=1, sort_keys=True)
        fh.write("\n")


if __name__ == "__main__":
    main()
