"""Tests of the benchmark itself: input generation, coverage, tracing and
the metric names it prints.

    PYTHONPATH=src python3 -m pytest -q perfbench/tests
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent.parent
ROOT = HERE.parent
sys.path[:0] = [str(HERE), str(ROOT / "src")]

import gen  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402
from tracing import NullTracer, Tracer  # noqa: E402

WORKLOADS = sorted(workloads.WORKLOADS)


def canonical(inputs):
    """Byte form of generated inputs (the fan-out scenario is JSON text)."""
    if isinstance(inputs, str):
        return inputs.encode()
    return json.dumps(inputs, sort_keys=True).encode()


@pytest.mark.parametrize("name", WORKLOADS)
def test_same_seed_gives_byte_identical_inputs(name):
    assert canonical(gen.generate(name, 7)) == canonical(gen.generate(name, 7))


@pytest.mark.parametrize("name", WORKLOADS)
def test_other_seed_gives_other_inputs_that_cover_every_path(name):
    assert canonical(gen.generate(name, 8)) != canonical(gen.generate(name, 9))
    prepare, op, digest, verify = workloads.WORKLOADS[name]
    workdir = run.OUT_DIR / f"test-{name}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        ctx = prepare(gen.generate(name, 8), str(workdir))
        raw = op(ctx, NullTracer())
        assert verify(ctx, raw) == []
        assert digest(ctx, raw)["counts"]
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def test_fanout_scenario_has_the_documented_mix():
    doc = gen.fanout_scenario(3)
    nodes = {n["address"]: n for n in doc["nodes"]}
    requests = doc["wake_requests"]
    assert len(nodes) == gen.FANOUT_NODES
    assert len(requests) == gen.FANOUT_REQUESTS
    assert sum(r["target_address"] not in nodes for r in requests) == gen.FANOUT_UNKNOWN
    tiny = [n for n in nodes.values() if n["energy"]["capacity_mah"] == gen.FANOUT_TINY_CAPACITY_MAH]
    assert len(tiny) == gen.FANOUT_TINY
    for tech in gen.TECHS:
        radius = gen.RADIUS_FACTOR * gen.PRESET_MAX_RANGE_M[tech]
        dists = [sum(c * c for c in n["position"]) ** 0.5 for n in nodes.values() if n["tech"] == tech]
        assert max(dists) <= radius + 0.01
        assert any(d > gen.PRESET_MAX_RANGE_M[tech] for d in dists)


def test_self_time_subtracts_children():
    tr = Tracer()
    tr.spans = [
        ["op", 0.0, 10.0, -1],
        ["sim.run", 1.0, 4.0, 0],
        ["scenario.parse", 5.0, 6.0, 0],
        ["sim.run", 7.0, 9.0, 0],
        ["op", 11.0, 12.0, -1],
    ]
    times, n = tr.self_times(0)
    assert n == 4
    assert times == {"op": 4.0, "sim.run": 5.0, "scenario.parse": 1.0}


def _benchmark_names(key):
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        spec = json.load(fh)
    return {m["name"]: m["unit"] for m in spec[key]}


@pytest.mark.parametrize("trace,key", [(0, "end_to_end"), (1, "per_layer")])
def test_printed_metrics_match_benchmark_json(trace, key):
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", "link-budget", "--seed", "5",
         "--seconds", "1", "--trace", str(trace)],
        cwd=ROOT, stdout=subprocess.PIPE, text=True, check=True, timeout=180,
    )
    result = json.loads(proc.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    printed = {name: m["unit"] for name, m in result["metrics"].items()}
    assert printed == _benchmark_names(key)


def test_refuses_to_run_without_the_package_source():
    bare = run.OUT_DIR / "test-bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(HERE, bare / "perfbench", ignore=shutil.ignore_patterns("__pycache__", "tests"))
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    try:
        proc = subprocess.run(
            [sys.executable, "perfbench/run.py", "--workload", "sim-fanout", "--seed", "1",
             "--seconds", "1", "--trace", "0"],
            cwd=bare, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, timeout=180,
        )
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
