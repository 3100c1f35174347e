"""Check that the tests kill the mutants listed below.

A mutant replaces one exact text in one source file with another, and
names the single test that must then fail, run at a fixed hypothesis
seed.  The text must occur exactly once: a refactor that removes or
repeats it stops the script until the list is brought up to date.  Each
mutant is applied to a fresh temporary copy of ``src`` and ``tests``,
never to the checkout, and the named tests must first pass on an
unmutated copy.  Uses the standard library only; pytest and hypothesis
run in child processes.

    python tests/mutants.py

Exits 0 if each mutant is killed, 1 if one survives or cannot be run.
"""

import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SEED = 0

ORACLE = "tests/test_oracle.py::"
MUTANTS = [
    {
        "name": "requests-sorted-by-time",
        "why": "two request times that round to one ns run in config order",
        "file": "src/iout_wakeup/sim.py",
        "old": "key=lambda r: _to_ns(r.time_s))",
        "new": "key=lambda r: r.time_s)",
        "test": ORACLE + "test_engine_matches_the_reference_engine",
    },
    {
        "name": "request-token-is-its-place",
        "why": "a request listed twice in a config is one request, and wakes a node once",
        "file": "src/iout_wakeup/sim.py",
        "old": "(_to_ns(r.time_s), r.target_address, r) for r in ordered)",
        "new": "(_to_ns(r.time_s), r.target_address, i) for i, r in enumerate(ordered))",
        "test": ORACLE + "test_engine_matches_the_reference_engine",
    },
    {
        "name": "lifetime-grid-one-token",
        "why": "each request of a simulated lifetime wakes the node, not only the first",
        "file": "src/iout_wakeup/sim.py",
        "old": "        requests = ((k * interval_ns, node.address, k) for k in range(count))",
        "new": "        requests = ((k * interval_ns, node.address, 0) for k in range(count))",
        "test": ORACLE + "test_simulated_lifetime_matches_the_closed_form",
    },
    {
        "name": "rows-sorted-by-delay-only",
        "why": "arrivals at one ns are handled in address order",
        "file": "src/iout_wakeup/sim.py",
        "old": "    table.sort(key=itemgetter(0, 1))",
        "new": "    table.sort(key=itemgetter(0))",
        "test": ORACLE + "test_engine_matches_the_reference_engine",
    },
    {
        "name": "equal-time-tie-dropped",
        "why": "a broadcast yields to a queue entry at its own ns that sorts first",
        "file": "src/iout_wakeup/sim.py",
        "old": "if t > head_t or t == head_t and (t, _PRIO_WUS, addr, order) > heap[0]:",
        "new": "if t > head_t:",
        "test": ORACLE + "test_engine_matches_the_reference_engine",
    },
    {
        "name": "depletion-appended",
        "why": "a depletion found while settling is logged in its place in time",
        "file": "src/iout_wakeup/sim.py",
        "old": "            events.insort(self.depleted_ns, self.depletion)",
        "new": "            events.add(self.depleted_ns, self.depletion)",
        "test": ORACLE + "test_events_are_logged_in_time_order",
    },
    {
        "name": "times-in-int64",
        "why": "a run logs times past 64 bits exactly",
        "file": "src/iout_wakeup/sim.py",
        "old": "        self.times = array(_U64) if horizon_ns < 2**64 else []",
        "new": '        self.times = array("q")',
        "test": "tests/test_sim.py::test_event_times_beyond_64_bits_are_exact",
    },
    {
        "name": "suffix-cached-without-target",
        "why": "an events CSV row renders its own request's target",
        "file": "src/iout_wakeup/sim.py",
        "old": "            yield stamp + head if tail is None else "
               'f"{stamp}{head}{code & MAX_ADDRESS}{tail}"',
        "new": "            if tail is not None:  # cached per key with the first row's target\n"
               "                parts[code >> _TARGET_BITS] = head, tail = (\n"
               '                    f"{head}{code & MAX_ADDRESS}{tail}", None)\n'
               "            yield stamp + head",
        "test": ORACLE + "test_the_run_log_acts_as_the_list_it_replaces",
    },
    {
        "name": "bool-in-a-float-field",
        "why": "a bool is a number of the wrong type for a float field",
        "file": "src/iout_wakeup/core.py",
        "old": "    if type(value) is bool:\n        if kind is bool:",
        "new": "    if type(value) is bool:\n        if kind is not int:",
        "test": "tests/test_sim.py::test_config_rejects_non_finite_values[bool-sensitivity]",
    },
    {
        "name": "make-link-takes-any-name",
        "why": "a link refuses a name it does not take; sweep-range relies on it",
        "file": "src/iout_wakeup/sim.py",
        "old": '    check_names(given, names, f"{technology} link")\n',
        "new": "",
        "test": "tests/test_cli.py::test_sweep_range_rejected_flags_exit_2",
    },
    {
        "name": "horizon-not-serialized",
        "why": "the scenario format carries every field of a config",
        "file": "src/iout_wakeup/scenario.py",
        "old": '        "horizon_s": config.horizon_s,\n',
        "new": "",
        "test": ORACLE + "test_a_config_that_runs_round_trips",
    },
]


def _copy(dest):
    """A copy of the package and its tests that pytest runs in place."""
    skip = shutil.ignore_patterns("__pycache__", "*.egg-info", ".hypothesis")
    for name in ("src", "tests"):
        shutil.copytree(ROOT / name, dest / name, ignore=skip)
    shutil.copy(ROOT / "pyproject.toml", dest / "pyproject.toml")


def _pytest(copy, tests):
    """The exit code of pytest on the given tests of a copy: 0 if all pass,
    1 if one fails, another code if they could not be run."""
    env = dict(os.environ, PYTHONPATH=str(copy / "src"), PYTHONDONTWRITEBYTECODE="1",
               IOUT_ORACLE_EXAMPLES_SCALE="1")
    cmd = [sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider",
           f"--hypothesis-seed={SEED}", *tests]
    done = subprocess.run(cmd, cwd=copy, env=env, stdout=subprocess.PIPE,
                          stderr=subprocess.STDOUT, text=True)
    return done.returncode, done.stdout


def _imports_the_copy(copy):
    env = dict(os.environ, PYTHONPATH=str(copy / "src"))
    cmd = [sys.executable, "-c", "import iout_wakeup; print(iout_wakeup.__file__)"]
    found = subprocess.run(cmd, cwd=copy, env=env, stdout=subprocess.PIPE, text=True).stdout
    return Path(found.strip()).resolve().is_relative_to(copy.resolve())


def main():
    for m in MUTANTS:
        count = (ROOT / m["file"]).read_text(encoding="utf-8").count(m["old"])
        if count != 1:
            print(f"{m['name']}: its text occurs {count} times in {m['file']}, not once")
            return 1
    with tempfile.TemporaryDirectory() as tmp:
        clean = Path(tmp) / "clean"
        _copy(clean)
        if not _imports_the_copy(clean):
            print("the copy's package is not the one imported: check PYTHONPATH")
            return 1
        code, out = _pytest(clean, sorted({m["test"] for m in MUTANTS}))
        if code != 0:
            print(out)
            print("the named tests do not pass unmutated")
            return 1
    survived = 0
    for m in MUTANTS:
        with tempfile.TemporaryDirectory() as tmp:
            copy = Path(tmp) / "copy"
            _copy(copy)
            path = copy / m["file"]
            path.write_text(path.read_text(encoding="utf-8").replace(m["old"], m["new"]),
                            encoding="utf-8")
            code, out = _pytest(copy, [m["test"]])
        if code == 1:
            print(f"killed   {m['name']}: {m['test']}")
        else:
            survived += 1
            state = "survived" if code == 0 else f"not run (pytest exit {code})"
            print(out)
            print(f"{state} {m['name']} ({m['why']}): {m['test']}")
    print(f"{len(MUTANTS) - survived} of {len(MUTANTS)} mutants killed")
    return 1 if survived else 0


if __name__ == "__main__":
    sys.exit(main())
