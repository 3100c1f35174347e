"""Command-line interface.

Three subcommands reproduce the library's headline outputs as CSV files:

* ``sweep-range``  received power vs distance for one technology, plus the
  maximum wake-up range at a sensitivity (printed as ``max_range_m=...``).
* ``lifetime``     node lifetime vs transmissions per hour under the
  no-wake-up / duty-cycle / on-demand policies.
* ``simulate``     run a scenario file (or bundled preset) through the
  event simulator; writes an event log and a per-node summary.

Exit codes: 0 success, 2 flag/parse errors, 3 when the range solver finds
no crossing inside its bracket, 4 scenario validation failures.  Every
error path prints one line ``error: <code>: <detail>`` to stderr.
"""

import argparse
import math
import os
import sys

from . import scenario as scenario_io
from .core import MAX_POINTS, TECHNOLOGIES
from .energy import DUTY_CYCLE, NO_WAKEUP, ON_DEMAND, WakePolicy, energy_profile, lifetime_hours
from .errors import (
    ConfigError,
    DomainError,
    NoSolution,
    ParseError,
    PolicyError,
    ValidationError,
)
from .optical import WaterType
from .scenario import fmt6
from .sim import link_fields, make_link, run

# sweep-range flags, each setting a name ``sim.link_fields`` lists for the
# --tech link: flag -> name.  They have no defaults of their own; a name no
# flag sets keeps its default.
_LINK_FLAGS = {
    "--sl-db": "source_level_db",
    "--spreading": "spreading_exponent",
    "--density-kg-m3": "density_kg_m3",
    "--sound-speed-m-s": "sound_speed_m_s",
    "--freq-khz": "frequency_khz",
    "--ptx-mw": "transmit_power_mw",
    "--aperture-m2": "aperture_area_m2",
    "--divergence-half-deg": "divergence_half_angle_deg",
    "--beta-deg": "misalignment_beta_deg",
    "--water": "water_type",
    "--extinction-per-m": "extinction_per_m",
    "--turns-tx": "turns_tx",
    "--turns-rx": "turns_rx",
    "--radius-tx-m": "coil_radius_tx_m",
    "--radius-rx-m": "coil_radius_rx_m",
    "--cal-gain-db": "calibration_gain_db",
}

# lifetime --policy: the kind of wake policy (it names the policy in the CSV).
_POLICIES = {"nowu": NO_WAKEUP, "dc": DUTY_CYCLE, "od": ON_DEMAND}


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise ParseError(message)


def _finite_float(text):
    value = float(text)
    if not math.isfinite(value):
        raise argparse.ArgumentTypeError(f"must be finite: {text}")
    return value


def _build_parser():
    parser = _Parser(prog="iout-wakeup", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    sweep = sub.add_parser("sweep-range", help="received power vs distance + max range")
    sweep.set_defaults(run=_cmd_sweep_range)
    sweep.add_argument("--tech", required=True, choices=TECHNOLOGIES)
    sweep.add_argument("--sensitivity-dbm", type=_finite_float, default=None,
                       help="receiver sensitivity (default per technology)")
    sweep.add_argument("--dmin", type=_finite_float, default=None, help="sweep start, m")
    sweep.add_argument("--dmax", type=_finite_float, default=None, help="sweep end, m")
    sweep.add_argument("--step", type=_finite_float, default=1.0, help="sweep step, m")
    sweep.add_argument("--out", default=None, help="CSV output path")
    link = sweep.add_argument_group(
        "link fields",
        "each sets the named field of the --tech link; others keep their defaults. "
        f"WATER_TYPE is one of {', '.join(w.value for w in WaterType)}",
    )
    types = {k: v for t in TECHNOLOGIES for k, v in link_fields(t).items()}
    for flag, name in _LINK_FLAGS.items():
        kind = _finite_float if types[name] is float else types[name]
        link.add_argument(flag, dest=name, type=kind, metavar=name.upper())

    life = sub.add_parser("lifetime", help="lifetime vs transmissions per hour")
    life.set_defaults(run=_cmd_lifetime)
    life.add_argument("--tech", required=True, choices=TECHNOLOGIES)
    life.add_argument("--policy", choices=[*_POLICIES, "all"], default="all")
    life.add_argument("--rate-per-hour", type=_finite_float, default=None,
                      help="single activation rate (otherwise a sweep)")
    life.add_argument("--rate-min", type=_finite_float, default=1.0)
    life.add_argument("--rate-max", type=_finite_float, default=10.0)
    life.add_argument("--rate-step", type=_finite_float, default=1.0)
    # the energy keys of a scenario node, as flags: --capacity-mah, ...
    for key, name in scenario_io.ENERGY_KEYS.items():
        life.add_argument(f"--{key.replace('_', '-')}", dest=name, type=_finite_float,
                          metavar=name.upper(),
                          help="overrides the technology's reference profile")
    life.add_argument("--out", default=None, help="CSV output path (default: stdout)")

    simulate = sub.add_parser("simulate", help="run a scenario through the event simulator")
    simulate.set_defaults(run=_cmd_simulate)
    simulate.add_argument("--scenario", required=True,
                          help=f"scenario JSON path or preset {scenario_io.PRESET_NAMES}")
    simulate.add_argument("--out", required=True,
                          help="output prefix; writes <out>_events.csv and <out>_summary.csv")
    return parser


def _given(args, flags):
    """{field: value} of the flags given on the command line."""
    return {name: getattr(args, name) for name in flags if getattr(args, name) is not None}


def _grid(start, stop, step):
    """start, start+step, ... up to stop (inclusive within 1e-9 steps): at
    most MAX_POINTS points."""
    steps = (stop - start) / step + 1e-9
    if not steps < MAX_POINTS:  # int(steps) + 1 points; inf and NaN fail too
        raise DomainError(f"grid of more than {MAX_POINTS} points")
    return [start + i * step for i in range(int(steps) + 1)]


def _cmd_sweep_range(args):
    # make_link refuses a flag that sets no field of the --tech link
    params = make_link(args.tech, **_given(args, _LINK_FLAGS.values()))
    default_min, default_max = params.sweep_range_m
    dmin = args.dmin if args.dmin is not None else default_min
    dmax = args.dmax if args.dmax is not None else default_max
    if args.step <= 0.0:
        raise DomainError(f"step must be positive: {args.step}")
    if not dmin < dmax:
        raise DomainError(f"need dmin < dmax: {dmin} >= {dmax}")
    sensitivity = args.sensitivity_dbm
    if sensitivity is None:
        sensitivity = params.default_sensitivity_dbm
    distances = _grid(dmin, dmax, args.step)
    powers = params.sweep(dmin, args.step, len(distances))
    max_range = params.max_range(sensitivity)
    if args.out:
        scenario_io.write_range_sweep_csv(args.out, distances, powers)
    print(f"max_range_m={fmt6(max_range)}")
    return 0


def _cmd_lifetime(args):
    profile = energy_profile(args.tech, **_given(args, scenario_io.ENERGY_KEYS.values()))
    if args.rate_per_hour is not None:
        rates = [args.rate_per_hour]
    else:
        if args.rate_step <= 0.0 or not args.rate_min <= args.rate_max:
            raise DomainError("need rate-min <= rate-max and positive rate-step")
        rates = _grid(args.rate_min, args.rate_max, args.rate_step)
    kinds = _POLICIES.values() if args.policy == "all" else [_POLICIES[args.policy]]
    rows = []
    for kind in kinds:
        for rate in rates:
            rows.append((rate, lifetime_hours(profile, WakePolicy(kind, rate)), kind))
    if args.out:
        scenario_io.write_lifetime_csv(args.out, rows)
    else:
        sys.stdout.writelines(scenario_io.lifetime_csv(rows))
    return 0


def _cmd_simulate(args):
    if os.path.exists(args.scenario):
        config = scenario_io.parse_scenario(args.scenario)
    elif args.scenario in scenario_io.PRESET_NAMES:
        config = scenario_io.load_preset(args.scenario)
    else:
        raise ParseError(f"no such scenario file or preset: {args.scenario}")
    report = run(config)
    scenario_io.write_events_csv(f"{args.out}_events.csv", report)
    scenario_io.write_summary_csv(f"{args.out}_summary.csv", report)
    wakes = sum(nr.wakes for nr in report.nodes.values())
    print(f"events={len(report.events)} wakes={wakes} failures={len(report.failures)}")
    return 0


def main(argv=None):
    try:
        args = _build_parser().parse_args(argv)
        return args.run(args)
    except NoSolution as exc:
        code, detail = 3, exc
    except (ValidationError, ConfigError) as exc:
        code, detail = 4, exc
    except (ParseError, DomainError, PolicyError, OSError) as exc:
        code, detail = 2, exc
    print(f"error: {code}: {detail}", file=sys.stderr)
    return code


def main_entry():
    raise SystemExit(main())
