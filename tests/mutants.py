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
        "name": "failure-view-drops-its-target",
        "why": "a failure read from its event names the event's request target",
        "file": "src/iout_wakeup/sim.py",
        "old": "log_code(failure | code & MAX_ADDRESS)",
        "new": "log_code(failure)",
        "test": ORACLE + "test_engine_matches_the_reference_engine",
    },
    {
        "name": "missing-transmitter-logs-a-plain-arrival",
        "why": "a relay without the target's transmitter logs a failing arrival",
        "file": "src/iout_wakeup/sim.py",
        "old": 'else (events.entry(actor, "rf_arrival", "target={}", OUT_OF_RANGE,\n'
               '                                   f"no {tech} transmitter for target {{}}"), ())',
        "new": "else (arrived, ())",
        "test": ORACLE + "test_engine_matches_the_reference_engine",
    },
    {
        "name": "unknown-target-routes-one-broadcast",
        "why": "a request for an address no node has goes out on every transmitter of a relay",
        "file": "src/iout_wakeup/sim.py",
        "old": "routes[None] = (arrived, tuple(broadcasts.values()))",
        "new": "routes[None] = (arrived, tuple(broadcasts.values())[:1])",
        "test": ORACLE + "test_engine_matches_the_reference_engine",
    },
    {
        "name": "route-ignores-target-technology",
        "why": "a relay emits on the target's technology only",
        "file": "src/iout_wakeup/sim.py",
        "old": "            tech = None if nrt is None else nrt.node.technology",
        "new": "            tech = None",
        "test": ORACLE + "test_engine_matches_the_reference_engine",
    },
    {
        "name": "no-buoy-failure-dropped",
        "why": "a request no buoy hears is a failure",
        "file": "src/iout_wakeup/sim.py",
        "old": 'events.entry("uav", "wake_request", "target={}", *no_buoy)',
        "new": 'events.entry("uav", "wake_request", "target={}")',
        "test": ORACLE + "test_engine_matches_the_reference_engine",
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
        "old": "t > head_t or t == head_t and (t, _PRIO_WUS, addr, order) > heap[0]:",
        "new": "t > head_t:",
        "test": ORACLE + "test_engine_matches_the_reference_engine",
    },
    {
        "name": "broadcast-ignores-the-next-request",
        "why": "a broadcast yields to a request due before its next arrival, queue empty or not",
        "file": "src/iout_wakeup/sim.py",
        "old": "if t > due or t > head_t",
        "new": "if t > head_t",
        "test": ORACLE + "test_engine_matches_the_reference_engine",
    },
    {
        "name": "request-before-queued-entries",
        "why": "a request runs after every queued entry at its ns",
        "file": "src/iout_wakeup/sim.py",
        "old": "        if heap and heap[0][0] <= due:",
        "new": "        if heap and heap[0][0] < due:",
        "test": ORACLE + "test_engine_matches_the_reference_engine",
    },
    {
        "name": "depletion-appended",
        "why": "a depletion found while settling is logged in its place in time",
        "file": "src/iout_wakeup/sim.py",
        "old": "            events.insort(self.depleted_ns, self.depletion)",
        "new": "            events.times.append(self.depleted_ns)\n"
               "            events.codes.append(self.depletion)",
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
        "name": "medium-names-ignored",
        "why": "the medium's fields given to make_link build the link's medium",
        "file": "src/iout_wakeup/sim.py",
        "old": "        given[medium] = Medium(**water)\n",
        "new": "        pass\n",
        "test": "tests/test_sim.py::test_acoustic_signal_travels_at_its_medium_sound_speed",
    },
    {
        "name": "medium-names-taken-by-every-link",
        "why": "only a link that runs in a medium takes the medium's fields",
        "file": "src/iout_wakeup/sim.py",
        "old": "    return cls, names, next(",
        "new": "    names.update((f.name, f.type) for f in fields(Medium))\n"
               "    return cls, names, next(",
        "test": "tests/test_cli.py::test_sweep_range_rejected_flags_exit_2",
    },
    {
        "name": "duplicate-address-built",
        "why": "a config with a repeated address is refused when built, not when run",
        "file": "src/iout_wakeup/sim.py",
        "old": "            if node.address in seen:\n"
               '                raise ConfigError(f"duplicate address: {node.address}")\n',
        "new": "",
        "test": "tests/test_sim.py::test_a_config_is_checked_when_built[duplicate-address]",
    },
    {
        "name": "csv-times-through-a-float",
        "why": "the events CSV prints each time as the log holds it, past 2**23 s too",
        "file": "src/iout_wakeup/scenario.py",
        "old": "report.events.lines(seconds_text, ",
        "new": 'report.events.lines(lambda time_ns: f"{time_ns / 1e9:.9f}", ',
        "test": "tests/test_scenario.py::test_events_csv_times_are_the_logged_times",
    },
    {
        "name": "bisection-keeps-the-wrong-half",
        "why": "the range solve keeps the half that holds the sensitivity crossing",
        "file": "src/iout_wakeup/core.py",
        "old": "        if rx_power_dbm(mid) >= sensitivity_dbm:\n            lo = mid",
        "new": "        if rx_power_dbm(mid) < sensitivity_dbm:\n            lo = mid",
        "test": "tests/test_links.py::test_max_range_finds_the_crossing_or_says_there_is_none",
    },
    {
        "name": "sweep-accumulates-the-step",
        "why": "a sweep point is the law at d0 + i * step, not at a running sum",
        "file": "src/iout_wakeup/core.py",
        "old": "        return [rx_dbm(d0 + i * step) for i in range(n)]",
        "new": "        points, d = [], d0\n"
               "        for _ in range(n):\n"
               "            points.append(rx_dbm(d))\n"
               "            d += step\n"
               "        return points",
        "test": "tests/test_links.py::test_a_sweep_is_the_law_at_each_point",
    },
    {
        "name": "absorption-changes-sign",
        "why": "acoustic received power does not rise at long range",
        "file": "src/iout_wakeup/acoustic.py",
        "old": "        return self.spreading_exponent * log10(d) + self.alpha_db_per_km * d / 1000.0",
        "new": "        return self.spreading_exponent * log10(d) - self.alpha_db_per_km * d / 1000.0",
        "test": "tests/test_links.py::test_rx_does_not_increase_over_the_range_bracket",
    },
    {
        "name": "horizon-not-serialized",
        "why": "the scenario format carries every field of a config",
        "file": "src/iout_wakeup/scenario.py",
        "old": '        "horizon_s": config.horizon_s,\n',
        "new": "",
        "test": ORACLE + "test_a_config_that_runs_round_trips",
    },
    {
        "name": "no-wakeup-skips-the-rate-rule",
        "why": "every policy kind holds its rate to one rule, though no_wakeup does not use it",
        "file": "src/iout_wakeup/energy.py",
        "old": "        if self.rate_per_hour < 0.0:",
        "new": "        if self.kind != NO_WAKEUP and self.rate_per_hour < 0.0:",
        "test": "tests/test_energy.py::test_policy_validation",
    },
    {
        "name": "horizon-kept-as-given",
        "why": "a config holds its horizon as a float, as a record holds a float field",
        "file": "src/iout_wakeup/sim.py",
        "old": '        object.__setattr__(self, "horizon_s", horizon_s)\n',
        "new": "",
        "test": "tests/test_sim.py::test_a_config_holds_its_horizon_as_a_float",
    },
    {
        "name": "delay-takes-nan",
        "why": "a NaN distance is refused, not a NaN delay",
        "file": "src/iout_wakeup/core.py",
        "old": "    if not distance_m >= 0.0:",
        "new": "    if distance_m < 0.0:",
        "test": "tests/test_core.py::test_propagation_delay_rejects_negative",
    },
    {
        "name": "csv-block-misses-an-exponent",
        "why": "a CSV block that %.6g writes with an exponent is fmt6's to render",
        "file": "src/iout_wakeup/scenario.py",
        "old": '"e+" in text or "e-" in text or ',
        "new": "",
        "test": "tests/test_scenario.py::test_csv_writers_render_each_number_through_fmt6",
    },
    {
        "name": "csv-block-misses-minus-zero",
        "why": "a CSV block that %.6g writes with a -0 field is fmt6's to render",
        "file": "src/iout_wakeup/scenario.py",
        "old": ' or "-0," in text or "-0\\n" in text',
        "new": "",
        "test": "tests/test_scenario.py::test_csv_writers_render_each_number_through_fmt6",
    },
    {
        "name": "horizon-scaled-in-float-range-only",
        "why": "simulate_lifetime names every horizon number in seconds, past the float range too",
        "file": "src/iout_wakeup/sim.py",
        "old": "number = isinstance(horizon_hours, (int, float)) and type(horizon_hours) is not bool",
        "new": "number = is_number(horizon_hours)",
        "test": "tests/test_sim.py::test_simulate_lifetime_rejects_bad_horizons[int-beyond-float]",
    },
    {
        "name": "command-line-faults-not-exit-2",
        "why": "a fault of the command line exits 2 with its one error line, not a traceback",
        "file": "src/iout_wakeup/cli.py",
        "old": "    except (ParseError, DomainError, PolicyError, OSError) as exc:",
        "new": "    except (DomainError, PolicyError, OSError) as exc:",
        "test": "tests/test_cli.py::test_cli_faults_exit_2_with_their_line",
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
