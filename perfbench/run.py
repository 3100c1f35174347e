#!/usr/bin/env python3
"""Benchmark of the iout-wakeup package, end to end and layer by layer.

    python3 perfbench/run.py --workload W --seed N --seconds S --trace 0|1

W is one of sim-fanout, sim-lifetime, link-budget, cli-cold, or ``all``
(each workload in turn, in its own process).  Run from the repository
root: the package is imported from ``src/`` and never installed.

The run generates its inputs from the seed, measures set-up in fresh
processes, runs one untimed op that must cover every path the workload
is meant to exercise, then repeats the op for S seconds.  Every op's
outputs are reduced to a digest (SHA-256 of each file written, stdout
lines, counts) and compared with ``golden.json`` for the default seed,
or with the untimed op's digest for any other seed; a mismatch, an
exception or a non-zero child exit marks the op failed.

``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` alternates
untraced and traced ops, reports per-layer self times and counts, the
tracing overhead, and writes the spans to ``.perfbench/``.  Readable
report lines come first; the last stdout line is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

import argparse
import gc
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import traceback
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".perfbench"
WORKLOAD_NAMES = ("sim-fanout", "sim-lifetime", "link-budget", "cli-cold")
DEFAULT_SEED = 1
SETUP_RUNS = 3

# Spans whose self time is reported directly as ``<span>_s``.
LAYER_SPANS = (
    "scenario.parse", "scenario.serialize", "scenario.write_events",
    "scenario.write_summary", "scenario.write_sweep", "scenario.write_lifetime",
    "sim.run", "sim.simulate_lifetime",
    "acoustic.max_range", "optical.max_range", "mi.max_range",
    "acoustic.sweep", "optical.sweep", "mi.sweep",
    "energy.lifetime",
)
CLI_SPANS = ("cli.sweep_range", "cli.lifetime", "cli.simulate")
COUNTS = (
    "scenario.csv_bytes", "scenario.json_bytes",
    "sim.events", "sim.wakes", "sim.wus_deliveries",
    "sim.failures.out_of_range", "sim.failures.address_mismatch", "sim.failures.depleted",
    "link.solves", "link.no_solution", "link.sweep_points", "energy.rows",
)


UNITS = {
    "sim.us_per_event": "us",
    "sim.events_per_s": "1/s",
    "sim.wake_yield": "ratio",
    "peak_rss_mb": "MB",
}


def unit_of(name):
    if name in UNITS:
        return UNITS[name]
    if name.endswith("_s"):
        return "s"
    if name.endswith("_bytes"):
        return "B"
    return "count"


def median(xs):
    return statistics.median(xs) if xs else 0.0


def p90(xs):
    return statistics.quantiles(xs, n=10, method="inclusive")[-1] if len(xs) > 1 else xs[0]


def labels(args, backend):
    return {
        "workload": args.workload,
        "seed": args.seed,
        "python": platform.python_version(),
        "kernel_backend": backend,
        "nproc": os.cpu_count(),
        "trace": args.trace,
    }


def measure_setup(workload, seed, workdir, run_child):
    """Median over fresh processes of package import plus the first op."""
    times = []
    for _ in range(SETUP_RUNS):
        argv = [sys.executable, str(HERE / "setup_probe.py"), workload, str(seed), workdir]
        code, out, _rss = run_child(argv, dict(os.environ), str(ROOT))
        if code != 0:
            raise RuntimeError(f"set-up probe exited {code}: {out.strip()}")
        times.append(float(out.split()[-1]))
    return median(times)


def load_golden(workload, seed):
    if seed != DEFAULT_SEED:
        return None
    with open(HERE / "golden.json", encoding="utf-8") as fh:
        return json.load(fh)[workload]


def digest_id(d):
    return hashlib.sha256(json.dumps(d, sort_keys=True).encode()).hexdigest()[:16]


class Runner:
    """One workload's timed loop with its golden check."""

    def __init__(self, op, digest, ctx, expected, reference_ok):
        self.op = op
        self.digest = digest
        self.ctx = ctx
        self.expected = expected
        self.reference_ok = reference_ok
        self.attempted = 0
        self.failed = 0
        self.peak_child_mb = 0.0

    def once(self, tracer):
        self.attempted += 1
        # Every op starts from the same collector state: without this, a
        # full collection of the previous op's garbage lands in some ops
        # and not others.
        gc.collect()
        t0 = perf_counter()
        try:
            with tracer.span("op"):
                raw = self.op(self.ctx, tracer)
        except Exception:  # an op that raises counts as failed; keep measuring
            wall = perf_counter() - t0
            if self.failed == 0:
                traceback.print_exc()
            self.failed += 1
            return wall
        wall = perf_counter() - t0
        if isinstance(raw, dict) and "peak_rss_mb" in raw:
            self.peak_child_mb = max(self.peak_child_mb, raw["peak_rss_mb"])
        if not self.reference_ok or self.digest(self.ctx, raw) != self.expected:
            if self.failed == 0:
                print("error: op output differs from the expected digest", file=sys.stderr)
            self.failed += 1
        return wall


def run_workload(args):
    if not (SRC / "iout_wakeup" / "__init__.py").is_file():
        print(f"error: no package source at {SRC}; run from a checkout of the repository",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import gen
    import iout_wakeup
    import workloads
    from tracing import NullTracer, Tracer

    lab = labels(args, getattr(iout_wakeup, "KERNEL_BACKEND", "none"))
    print("labels " + " ".join(f"{k}={v}" for k, v in lab.items()))
    prepare, op, digest, verify = workloads.WORKLOADS[args.workload]
    inputs = gen.generate(args.workload, args.seed)

    OUT_DIR.mkdir(exist_ok=True)
    workdir = tempfile.mkdtemp(prefix="work-", dir=OUT_DIR)
    try:
        setup_s = measure_setup(args.workload, args.seed, workdir, workloads.run_child)
        ctx = prepare(inputs, workdir)
        raw = op(ctx, NullTracer())
        problems = verify(ctx, raw)
        if problems:
            for p in problems:
                print(f"error: {args.workload} seed {args.seed}: {p}", file=sys.stderr)
            print("error: the generated inputs do not exercise every path; refusing to run",
                  file=sys.stderr)
            return 3
        reference = digest(ctx, raw)
        golden = load_golden(args.workload, args.seed)
        reference_ok = golden is None or golden == reference
        if not reference_ok:
            print(f"error: digest {digest_id(reference)} differs from golden "
                  f"{digest_id(golden)} for the default seed", file=sys.stderr)
        print(f"digest {digest_id(reference)} "
              + json.dumps({"values": reference["values"], "counts": reference["counts"]},
                           sort_keys=True))
        runner = Runner(op, digest, ctx, golden or reference, reference_ok)
        del raw  # so peak memory holds one op's outputs, not two

        tracer = Tracer()
        plain, traced, per_op, floors = [], [], [], {}
        deadline = perf_counter() + args.seconds
        i = 0
        while perf_counter() < deadline or not traced and args.trace:
            if args.trace and i % 2:
                root = len(tracer.spans)
                traced.append(runner.once(tracer))
                per_op.append(tracer.self_times(root))
                if args.workload == "cli-cold":
                    start = len(tracer.spans)
                    workloads.cli_floors(ctx, tracer)
                    for name, t0, t1, _parent in tracer.spans[start:]:
                        floors.setdefault(name, []).append(t1 - t0)
            else:
                plain.append(runner.once(NullTracer()))
            i += 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    if args.trace:
        tracer.dump(OUT_DIR / f"trace_{args.workload}.json", lab)
        metrics = layer_metrics(args, reference["counts"], plain, traced, per_op, floors, ctx)
    else:
        peak = runner.peak_child_mb or resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        metrics = {
            "setup_s": setup_s,
            "op_wall_s": median(plain),
            "peak_rss_mb": peak,
        }
    report(args, runner, plain, traced, metrics, reference["counts"])
    return 0


def layer_metrics(args, counts, plain, traced, per_op, floors, ctx):
    def layer(name):
        return median([times.get(name, 0.0) for times, _n in per_op])

    m = {f"{name}_s": layer(name) for name in LAYER_SPANS}
    interpreter = median(floors.get("cli.floor_pass", []))
    imported = median(floors.get("cli.floor_import", []))
    m["cli.interpreter_s"] = interpreter
    m["cli.import_s"] = imported - interpreter if floors else 0.0
    for span in CLI_SPANS:
        calls = sum(1 for s, _argv, _outs in ctx.get("calls", ()) if s == span)
        m[span + "_s"] = layer(span) / calls - imported if calls else 0.0
    for name in COUNTS:
        m[name] = counts.get(name, 0)
    events = counts.get("sim.events", 0)
    sim_s = m["sim.run_s"] + m["sim.simulate_lifetime_s"]
    m["sim.us_per_event"] = sim_s / events * 1e6 if events else 0.0
    m["sim.events_per_s"] = events / median(plain) if events else 0.0
    deliveries = counts.get("sim.wus_deliveries", 0)
    m["sim.wake_yield"] = counts.get("sim.wakes", 0) / deliveries if deliveries else 0.0
    m["bench.self_s"] = layer("op")
    m["trace.overhead_s"] = median(traced) - median(plain)
    m["trace.spans"] = per_op[0][1] if per_op else 0
    if floors:
        print(f"baseline python -c pass = {interpreter * 1e3:.1f} ms")
        print(f"baseline python -c 'import iout_wakeup' = {imported * 1e3:.1f} ms")
        for span in CLI_SPANS:
            print(f"baseline {span} (one process) = {(m[span + '_s'] + imported) * 1e3:.1f} ms")
    return m


def report(args, runner, plain, traced, metrics, counts):
    """Readable lines first (``report`` lines carry no bound), then the
    result object as the last line."""
    walls = traced if args.trace else plain
    print(f"ops attempted={runner.attempted} failed={runner.failed}")
    print("op_walls_s " + " ".join(f"{w:.4f}" for w in walls))
    print(f"report failed_ratio {runner.failed / runner.attempted} ratio")
    # Fewer than 100 samples leave no percentile above the median with ten
    # samples beyond it, so p90 is reported but carries no bound.
    print(f"report op_wall_p90_s {p90(walls)} s (n={len(walls)})")
    if not args.trace and counts.get("sim.events"):
        print(f"report sim_events_per_s {counts['sim.events'] / metrics['op_wall_s']} 1/s")
    for name, value in metrics.items():
        print(f"metric {name} {value} {unit_of(name)}")
    print(json.dumps({
        "correct": runner.failed == 0,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": {k: {"value": v, "unit": unit_of(k)} for k, v in metrics.items()},
    }))


def run_all(args):
    """Each workload in its own process, so memory and imports stay apart."""
    merged = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOAD_NAMES:
        argv = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
                "--seed", str(args.seed), "--seconds", str(args.seconds),
                "--trace", str(args.trace)]
        proc = subprocess.run(argv, stdout=subprocess.PIPE, text=True, check=False)
        sys.stdout.write(proc.stdout)
        if proc.returncode != 0:
            print(f"error: workload {name} exited {proc.returncode}", file=sys.stderr)
            return proc.returncode
        result = json.loads(proc.stdout.splitlines()[-1])
        merged["correct"] &= result["correct"]
        merged["attempted"] += result["attempted"]
        merged["failed"] += result["failed"]
        for k, v in result["metrics"].items():
            merged["metrics"][f"{name}.{k}"] = v
    print(json.dumps(merged))
    return 0


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=int, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    if args.workload == "all":
        return run_all(args)
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
