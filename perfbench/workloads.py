"""The four benchmark workloads, each driving the package's public API.

A workload is three functions:

* ``prepare(inputs, workdir)`` turns generated inputs into the op's
  context with plain-data work only (no package calls);
* ``op(ctx, tracer)`` is the unit of timed work; every call into a
  package layer sits in a span named after that layer;
* ``digest(ctx, raw)`` runs after the timer stops and reduces the op's
  outputs to JSON-able ``files`` (SHA-256 per output file), ``values``
  (stdout lines, hours, ...) and per-layer ``counts``.

``verify(ctx, raw)`` runs on the first, untimed op only.  It checks
properties that need no golden file (coverage of every protocol path,
scenario round trip, solver bracketing) and returns a list of problems.
"""

import hashlib
import math
import os
import subprocess
import sys
from collections import Counter
from pathlib import Path

from iout_wakeup import acoustic, energy, mi, optical, scenario, sim
from iout_wakeup.core import Medium, Position3D
from iout_wakeup.errors import NoSolution

ROOT = Path(__file__).resolve().parent.parent


def sha256_file(path):
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


def _files(paths):
    return {Path(p).name: sha256_file(p) for p in paths}


def _csv_bytes(paths):
    return sum(os.path.getsize(p) for p in paths)


# ---------------------------------------------------------------------------
# sim-fanout

# Every event kind, wus_arrival outcome and failure reason the simulator
# can produce for a single-buoy scenario with all three transmitters.
EVENT_KINDS = {
    "wake_request", "rf_arrival", "wus_emit", "wus_arrival",
    "node_wake", "node_sleep", "node_depleted",
}
ARRIVAL_OUTCOMES = {"depleted", "below_sensitivity", "address_mismatch", "ignored_active"}
FAILURE_REASONS = {"out_of_range", "address_mismatch", "depleted"}


def _events_line(report):
    wakes = sum(nr.wakes for nr in report.nodes.values())
    return f"events={len(report.events)} wakes={wakes} failures={len(report.failures)}"


def _sim_counts(report):
    kinds = Counter(e.kind for e in report.events)
    reasons = Counter(f.reason for f in report.failures)
    return {
        "sim.events": len(report.events),
        "sim.wakes": kinds["node_wake"],
        # A delivered wake-up signal is logged as node_wake on success and
        # as wus_arrival otherwise.
        "sim.wus_deliveries": kinds["wus_arrival"] + kinds["node_wake"],
        "sim.failures.out_of_range": reasons["out_of_range"],
        "sim.failures.address_mismatch": reasons["address_mismatch"],
        "sim.failures.depleted": reasons["depleted"],
    }


def fanout_prepare(text, workdir):
    return {
        "text": text,
        "events_csv": os.path.join(workdir, "fanout_events.csv"),
        "summary_csv": os.path.join(workdir, "fanout_summary.csv"),
    }


def fanout_op(ctx, tr):
    with tr.span("scenario.parse"):
        config = scenario.parse_scenario_text(ctx["text"])
    with tr.span("sim.run"):
        report = sim.run(config)
    with tr.span("scenario.write_events"):
        scenario.write_events_csv(ctx["events_csv"], report)
    with tr.span("scenario.write_summary"):
        scenario.write_summary_csv(ctx["summary_csv"], report)
    with tr.span("scenario.serialize"):
        text = scenario.scenario_to_json(config)
    return {"report": report, "json": text}


def fanout_digest(ctx, raw):
    csvs = (ctx["events_csv"], ctx["summary_csv"])
    counts = _sim_counts(raw["report"])
    counts["scenario.csv_bytes"] = _csv_bytes(csvs)
    counts["scenario.json_bytes"] = len(raw["json"].encode())
    return {
        "files": dict(
            _files(csvs), **{"scenario.json": hashlib.sha256(raw["json"].encode()).hexdigest()}
        ),
        "values": {"stdout": _events_line(raw["report"])},
        "counts": counts,
    }


def fanout_verify(ctx, raw):
    report = raw["report"]
    problems = []
    kinds = {e.kind for e in report.events}
    outcomes = {e.detail.split(" ", 1)[0] for e in report.events if e.kind == "wus_arrival"}
    reasons = {f.reason for f in report.failures}
    for label, want, got in (
        ("event kind", EVENT_KINDS, kinds),
        ("wus_arrival outcome", ARRIVAL_OUTCOMES, outcomes),
        ("failure reason", FAILURE_REASONS, reasons),
    ):
        for missing in sorted(want - got):
            problems.append(f"generated scenario produces no {label} '{missing}'")
    again = scenario.scenario_to_json(scenario.parse_scenario_text(raw["json"]))
    if again != raw["json"]:
        problems.append("serialised scenario does not parse back to the same JSON")
    return problems


# ---------------------------------------------------------------------------
# sim-lifetime

def lifetime_prepare(inputs, workdir):
    return dict(inputs)


def _lifetime_node(spec):
    e = spec["energy"]
    return sim.make_node(
        spec["tech"],
        address=spec["address"],
        depth_m=spec["depth_m"],
        energy=energy.EnergyProfile(e["capacity_mah"], e["active_ma"], e["sleep_ma"], e["active_s"]),
    )


def lifetime_op(ctx, tr):
    hours = {}
    for spec in ctx["nodes"]:
        with tr.span("sim.simulate_lifetime"):
            hours[spec["tech"]] = sim.simulate_lifetime(
                _lifetime_node(spec), ctx["rate_per_hour"], ctx["horizon_hours"]
            )
    return hours


def _lifetime_report(ctx, spec):
    """The run ``sim.simulate_lifetime`` performs, rebuilt from its
    documented set-up (buoy straight above the node, UAV 10 m over the
    buoy, one matched request every 3600/rate s), for its counts."""
    node = _lifetime_node(spec)
    p = node.position
    interval_s = 3600.0 / ctx["rate_per_hour"]
    horizon_s = ctx["horizon_hours"] * 3600.0
    count = int(math.floor((horizon_s - 1e-6) / interval_s)) + 1
    config = sim.SimConfig(
        uav=sim.Uav(Position3D(p.x, p.y, -10.0), rf_range_m=100.0),
        buoys=[sim.Buoy(Position3D(p.x, p.y, 0.0))],
        nodes=[node],
        wake_requests=[sim.WakeRequest(k * interval_s, node.address) for k in range(count)],
        horizon_s=horizon_s,
    )
    return sim.run(config)


def lifetime_digest(ctx, raw):
    return {
        "files": {},
        "values": {tech: repr(h) for tech, h in raw.items()},
        "counts": ctx["counts"],
    }


def lifetime_verify(ctx, raw):
    problems = []
    totals = Counter()
    depleted = 0
    for spec in ctx["nodes"]:
        report = _lifetime_report(ctx, spec)
        totals.update(_sim_counts(report))
        nrep = report.nodes[spec["address"]]
        depleted += nrep.depleted
        if nrep.depleted:
            hours = nrep.depleted_at_s / 3600.0
        else:
            hours = ctx["horizon_hours"] * spec["energy"]["capacity_mah"] / nrep.charge_consumed_mah
        if hours != raw[spec["tech"]]:
            problems.append(f"{spec['tech']}: rebuilt run disagrees with simulate_lifetime")
    ctx["counts"] = dict(totals)
    if depleted == 0:
        problems.append("no node depletes inside the horizon")
    if depleted == len(ctx["nodes"]):
        problems.append("every node depletes inside the horizon")
    return problems


# ---------------------------------------------------------------------------
# link-budget

def _acoustic_params(p):
    return acoustic.AcousticLinkParams(
        frequency_khz=p["frequency_khz"], medium=Medium(), spreading_exponent=p["spreading_exponent"]
    )


def _optical_params(p):
    return optical.OpticalLinkParams(
        extinction_per_m=optical.extinction_coefficient(optical.WaterType(p["water_type"])),
        misalignment_beta_deg=p["misalignment_beta_deg"],
    )


def _mi_params(p):
    return mi.MiLinkParams(
        turns_tx=p["turns"], turns_rx=p["turns"], misalignment_beta_deg=p["misalignment_beta_deg"]
    )


LINKS = {
    "acoustic": (_acoustic_params, acoustic.acoustic_max_range, acoustic.sweep_received_power),
    "optical": (_optical_params, optical.optical_max_range, optical.sweep_received_power),
    "mi": (_mi_params, mi.mi_max_range, mi.sweep_received_power),
}
POLICIES = (
    ("no_wakeup", lambda rate: energy.WakePolicy.no_wakeup()),
    ("duty_cycle", energy.WakePolicy.duty_cycle),
    ("on_demand", energy.WakePolicy.on_demand),
)


def link_prepare(inputs, workdir):
    n = inputs["sweep_points"]
    sweeps = []
    for i, s in enumerate(inputs["sweeps"]):
        sweeps.append(
            dict(
                s,
                distances=[s["d0"] + k * s["step"] for k in range(n)],
                path=os.path.join(workdir, f"sweep_{i:03d}_{s['tech']}.csv"),
            )
        )
    return {
        "maps": inputs["maps"],
        "sweeps": sweeps,
        "n": n,
        "rates": inputs["lifetime_rates"],
        "lifetime_paths": {t: os.path.join(workdir, f"lifetime_{t}.csv") for t in LINKS},
    }


def link_op(ctx, tr):
    ranges = []
    for tech, (make, max_range, _sweep) in LINKS.items():
        block = ctx["maps"][tech]
        span = f"{tech}.max_range"
        for p in block["params"]:
            with tr.span(span):
                params = make(p)
                for sens in block["sensitivities_dbm"]:
                    try:
                        ranges.append(max_range(params, sens))
                    except NoSolution:
                        ranges.append(None)
    for s in ctx["sweeps"]:
        make, _max_range, sweep = LINKS[s["tech"]]
        with tr.span(f"{s['tech']}.sweep"):
            powers = sweep(make(s["params"]), s["d0"], s["step"], ctx["n"])
        with tr.span("scenario.write_sweep"):
            scenario.write_range_sweep_csv(s["path"], s["distances"], powers)
    rows = 0
    for tech, path in ctx["lifetime_paths"].items():
        # One span per technology: a lifetime row costs less than a span.
        with tr.span("energy.lifetime"):
            profile = energy.DEFAULT_ENERGY[tech]
            table = [
                (rate, energy.lifetime_hours(profile, policy(rate)), name)
                for name, policy in POLICIES
                for rate in ctx["rates"]
            ]
        with tr.span("scenario.write_lifetime"):
            scenario.write_lifetime_csv(path, table)
        rows += len(table)
    return {"ranges": ranges, "rows": rows}


def link_digest(ctx, raw):
    paths = [s["path"] for s in ctx["sweeps"]] + list(ctx["lifetime_paths"].values())
    ranges = ",".join("none" if r is None else scenario.fmt6(r) for r in raw["ranges"])
    return {
        "files": _files(paths),
        "values": {"max_range_m": hashlib.sha256(ranges.encode()).hexdigest()},
        "counts": {
            "link.solves": len(raw["ranges"]),
            "link.no_solution": raw["ranges"].count(None),
            "link.sweep_points": ctx["n"] * len(ctx["sweeps"]),
            "energy.rows": raw["rows"],
            "scenario.csv_bytes": _csv_bytes(paths),
        },
    }


def link_verify(ctx, raw):
    """Each solved range meets the sensitivity and 1 cm further does not."""
    problems = []
    ranges = iter(raw["ranges"])
    rx = {
        "acoustic": acoustic.received_power_density_dbm,
        "optical": optical.received_power_dbm,
        "mi": mi.received_power_dbm,
    }
    solved = 0
    for tech, (make, _max_range, _sweep) in LINKS.items():
        block = ctx["maps"][tech]
        for p in block["params"]:
            params = make(p)
            for sens in block["sensitivities_dbm"]:
                r = next(ranges)
                if r is None:
                    continue
                solved += 1
                if not rx[tech](params, r - 0.01) >= sens > rx[tech](params, r + 0.01):
                    problems.append(f"{tech} {p} sens={sens}: range {r} does not bracket")
    if solved == 0 or solved == len(raw["ranges"]):
        problems.append("the map needs both solved and unsolvable points")
    return problems[:5]


# ---------------------------------------------------------------------------
# cli-cold

def cli_env():
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def run_child(argv, env, cwd):
    """Run one child process to completion; returns its exit code, its
    output and its own peak RSS in MB."""
    with subprocess.Popen(
        argv, stdout=subprocess.PIPE, stderr=subprocess.STDOUT, env=env, cwd=cwd
    ) as proc:
        out = proc.stdout.read()
        _, status, usage = os.wait4(proc.pid, 0)
        proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, out.decode(), usage.ru_maxrss / 1024.0


def cli_prepare(inputs, workdir):
    py = [sys.executable, "-m", "iout_wakeup"]
    calls = []
    for tech, flags in inputs["sweep"].items():
        out = os.path.join(workdir, f"cli_sweep_{tech}.csv")
        calls.append(("cli.sweep_range", py + ["sweep-range", "--tech", tech, "--out", out] + flags, [out]))
    for tech, flags in inputs["lifetime"].items():
        out = os.path.join(workdir, f"cli_lifetime_{tech}.csv")
        calls.append(("cli.lifetime", py + ["lifetime", "--tech", tech, "--out", out] + flags, [out]))
    for preset in inputs["simulate"]:
        prefix = os.path.join(workdir, f"cli_sim_{preset}")
        outs = [prefix + "_events.csv", prefix + "_summary.csv"]
        calls.append(("cli.simulate", py + ["simulate", "--scenario", preset, "--out", prefix], outs))
    return {"calls": calls, "env": cli_env(), "workdir": workdir}


class ChildFailed(RuntimeError):
    pass


def cli_op(ctx, tr):
    stdout = []
    peak_mb = 0.0
    for span, argv, _outs in ctx["calls"]:
        with tr.span(span):
            code, out, rss_mb = run_child(argv, ctx["env"], ctx["workdir"])
        if code != 0:
            raise ChildFailed(f"{' '.join(argv[3:5])} exited {code}: {out.strip()}")
        stdout.append(out.strip())
        peak_mb = max(peak_mb, rss_mb)
    return {"stdout": stdout, "peak_rss_mb": peak_mb}


def cli_floors(ctx, tr):
    """The two subtractable floors: interpreter start and package import."""
    for span, code in (("cli.floor_pass", "pass"), ("cli.floor_import", "import iout_wakeup")):
        with tr.span(span):
            status, out, _rss = run_child([sys.executable, "-c", code], ctx["env"], ctx["workdir"])
        if status != 0:
            raise ChildFailed(f"python -c {code!r} exited {status}: {out.strip()}")


def cli_digest(ctx, raw):
    paths = [p for _span, _argv, outs in ctx["calls"] for p in outs]
    return {
        "files": _files(paths),
        "values": {"stdout": raw["stdout"]},
        "counts": {"scenario.csv_bytes": _csv_bytes(paths)},
    }


def cli_verify(ctx, raw):
    problems = []
    for (span, argv, _outs), out in zip(ctx["calls"], raw["stdout"]):
        last = out.splitlines()[-1] if out else ""
        if span == "cli.sweep_range" and not last.startswith("max_range_m="):
            problems.append(f"{' '.join(argv[3:6])}: no max_range_m line")
        if span == "cli.simulate" and not last.startswith("events="):
            problems.append(f"{' '.join(argv[3:6])}: no events line")
    return problems


WORKLOADS = {
    "sim-fanout": (fanout_prepare, fanout_op, fanout_digest, fanout_verify),
    "sim-lifetime": (lifetime_prepare, lifetime_op, lifetime_digest, lifetime_verify),
    "link-budget": (link_prepare, link_op, link_digest, link_verify),
    "cli-cold": (cli_prepare, cli_op, cli_digest, cli_verify),
}
