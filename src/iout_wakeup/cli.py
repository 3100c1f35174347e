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
from .acoustic import AcousticLinkParams
from .core import ACOUSTIC, OPTICAL, PROFILES, Medium, TECHNOLOGIES
from .energy import (
    DEFAULT_ENERGY,
    EnergyProfile,
    WakePolicy,
    lifetime_hours,
)
from .errors import (
    ConfigError,
    DomainError,
    NoSolution,
    ParseError,
    PolicyError,
    ValidationError,
)
from .mi import MiLinkParams
from .optical import OpticalLinkParams, WaterType, extinction_coefficient
from .scenario import fmt6
from .sim import run


class _CliError(Exception):
    def __init__(self, code, detail):
        super().__init__(detail)
        self.code = code
        self.detail = detail


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise _CliError(2, message)


def _build_parser():
    parser = _Parser(prog="iout-wakeup", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    sweep = sub.add_parser("sweep-range", help="received power vs distance + max range")
    sweep.add_argument("--tech", required=True, choices=TECHNOLOGIES)
    sweep.add_argument("--sensitivity-dbm", type=float, default=None,
                       help="receiver sensitivity (default per technology)")
    sweep.add_argument("--dmin", type=float, default=None, help="sweep start, m")
    sweep.add_argument("--dmax", type=float, default=None, help="sweep end, m")
    sweep.add_argument("--step", type=float, default=1.0, help="sweep step, m")
    sweep.add_argument("--out", default=None, help="CSV output path")
    # acoustic
    sweep.add_argument("--sl-db", type=float, default=190.0, help="acoustic source level")
    sweep.add_argument("--spreading", type=float, default=20.0,
                       help="acoustic spreading exponent (10/15/20)")
    sweep.add_argument("--density-kg-m3", type=float, default=1000.0)
    sweep.add_argument("--sound-speed-m-s", type=float, default=1500.0)
    # shared by acoustic (8 kHz) and mi (75 kHz)
    sweep.add_argument("--freq-khz", type=float, default=None)
    # shared by optical (250 mW) and mi (100 mW)
    sweep.add_argument("--ptx-mw", type=float, default=None)
    # optical
    sweep.add_argument("--aperture-m2", type=float, default=0.0011)
    sweep.add_argument("--divergence-half-deg", type=float, default=0.25)
    sweep.add_argument("--water", choices=[w.value for w in WaterType], default=None)
    sweep.add_argument("--extinction-per-m", type=float, default=None)
    # shared by optical and mi
    sweep.add_argument("--beta-deg", type=float, default=0.0, help="misalignment angle")
    # mi
    sweep.add_argument("--turns-tx", type=int, default=30)
    sweep.add_argument("--turns-rx", type=int, default=30)
    sweep.add_argument("--radius-tx-m", type=float, default=0.5)
    sweep.add_argument("--radius-rx-m", type=float, default=0.5)
    sweep.add_argument("--cal-gain-db", type=float, default=None,
                       help="mi calibration gain (default: reference calibration)")

    life = sub.add_parser("lifetime", help="lifetime vs transmissions per hour")
    life.add_argument("--tech", required=True, choices=TECHNOLOGIES)
    life.add_argument("--policy", choices=["nowu", "dc", "od", "all"], default="all")
    life.add_argument("--rate-per-hour", type=float, default=None,
                      help="single activation rate (otherwise a sweep)")
    life.add_argument("--rate-min", type=float, default=1.0)
    life.add_argument("--rate-max", type=float, default=10.0)
    life.add_argument("--rate-step", type=float, default=1.0)
    life.add_argument("--capacity-mah", type=float, default=None)
    life.add_argument("--active-ma", type=float, default=None)
    life.add_argument("--sleep-ma", type=float, default=None)
    life.add_argument("--active-s", type=float, default=None)
    life.add_argument("--out", default=None, help="CSV output path (default: stdout)")

    simulate = sub.add_parser("simulate", help="run a scenario through the event simulator")
    simulate.add_argument("--scenario", required=True,
                          help=f"scenario JSON path or preset {scenario_io.PRESET_NAMES}")
    simulate.add_argument("--out", required=True,
                          help="output prefix; writes <out>_events.csv and <out>_summary.csv")
    return parser


def _sweep_params(args):
    if args.tech == ACOUSTIC:
        return AcousticLinkParams(
            source_level_db=args.sl_db,
            frequency_khz=args.freq_khz if args.freq_khz is not None else 8.0,
            medium=Medium(args.density_kg_m3, args.sound_speed_m_s),
            spreading_exponent=args.spreading,
        )
    if args.tech == OPTICAL:
        if args.water is not None and args.extinction_per_m is not None:
            raise _CliError(2, "give --water or --extinction-per-m, not both")
        if args.extinction_per_m is not None:
            ext = args.extinction_per_m
        else:
            ext = extinction_coefficient(WaterType(args.water or "clear_ocean"))
        return OpticalLinkParams(
            transmit_power_mw=args.ptx_mw if args.ptx_mw is not None else 250.0,
            aperture_area_m2=args.aperture_m2,
            divergence_half_angle_deg=args.divergence_half_deg,
            extinction_per_m=ext,
            misalignment_beta_deg=args.beta_deg,
        )
    kwargs = {}
    if args.cal_gain_db is not None:
        kwargs["calibration_gain_db"] = args.cal_gain_db
    return MiLinkParams(
        transmit_power_mw=args.ptx_mw if args.ptx_mw is not None else 100.0,
        frequency_khz=args.freq_khz if args.freq_khz is not None else 75.0,
        turns_tx=args.turns_tx,
        turns_rx=args.turns_rx,
        coil_radius_tx_m=args.radius_tx_m,
        coil_radius_rx_m=args.radius_rx_m,
        misalignment_beta_deg=args.beta_deg,
        **kwargs,
    )


def _cmd_sweep_range(args):
    params = _sweep_params(args)
    default_min, default_max = params.sweep_range_m
    dmin = args.dmin if args.dmin is not None else default_min
    dmax = args.dmax if args.dmax is not None else default_max
    for flag, value in (("dmin", dmin), ("dmax", dmax), ("step", args.step)):
        if not math.isfinite(value):
            raise _CliError(2, f"{flag} must be finite: {value}")
    if args.step <= 0.0:
        raise _CliError(2, f"step must be positive: {args.step}")
    if not dmin < dmax:
        raise _CliError(2, f"need dmin < dmax: {dmin} >= {dmax}")
    sensitivity = (
        args.sensitivity_dbm
        if args.sensitivity_dbm is not None
        else PROFILES[args.tech].default_sensitivity_dbm
    )
    n = int((dmax - dmin) / args.step + 1e-9) + 1
    distances = [dmin + i * args.step for i in range(n)]
    powers = params.sweep(dmin, args.step, n)
    max_range = params.max_range(sensitivity)
    if args.out:
        scenario_io.write_range_sweep_csv(args.out, distances, powers)
    print(f"max_range_m={fmt6(max_range)}")
    return 0


def _lifetime_profile(args):
    base = DEFAULT_ENERGY[args.tech]
    return EnergyProfile(
        battery_capacity_mah=args.capacity_mah if args.capacity_mah is not None
        else base.battery_capacity_mah,
        active_current_ma=args.active_ma if args.active_ma is not None
        else base.active_current_ma,
        sleep_current_ma=args.sleep_ma if args.sleep_ma is not None
        else base.sleep_current_ma,
        active_duration_s=args.active_s if args.active_s is not None
        else base.active_duration_s,
    )


def _cmd_lifetime(args):
    profile = _lifetime_profile(args)
    if args.rate_per_hour is not None:
        rates = [args.rate_per_hour]
    else:
        if args.rate_step <= 0.0 or not args.rate_min <= args.rate_max:
            raise _CliError(2, "need rate-min <= rate-max and positive rate-step")
        n = int((args.rate_max - args.rate_min) / args.rate_step + 1e-9) + 1
        rates = [args.rate_min + i * args.rate_step for i in range(n)]
    kinds = {
        "nowu": [("no_wakeup", None)],
        "dc": [("duty_cycle", WakePolicy.duty_cycle)],
        "od": [("on_demand", WakePolicy.on_demand)],
        "all": [
            ("no_wakeup", None),
            ("duty_cycle", WakePolicy.duty_cycle),
            ("on_demand", WakePolicy.on_demand),
        ],
    }[args.policy]
    rows = []
    for name, factory in kinds:
        for rate in rates:
            policy = WakePolicy.no_wakeup() if factory is None else factory(rate)
            rows.append((rate, lifetime_hours(profile, policy), name))
    if args.out:
        scenario_io.write_lifetime_csv(args.out, rows)
    else:
        print("tx_per_hour,lifetime_h,policy")
        for rate, hours, name in rows:
            print(f"{fmt6(rate)},{fmt6(hours)},{name}")
    return 0


def _cmd_simulate(args):
    if os.path.exists(args.scenario):
        config = scenario_io.parse_scenario(args.scenario)
    elif args.scenario in scenario_io.PRESET_NAMES:
        config = scenario_io.load_preset(args.scenario)
    else:
        raise _CliError(2, f"no such scenario file or preset: {args.scenario}")
    report = run(config)
    scenario_io.write_events_csv(f"{args.out}_events.csv", report)
    scenario_io.write_summary_csv(f"{args.out}_summary.csv", report)
    wakes = sum(nr.wakes for nr in report.nodes.values())
    print(f"events={len(report.events)} wakes={wakes} failures={len(report.failures)}")
    return 0


def main(argv=None):
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        if args.command == "sweep-range":
            return _cmd_sweep_range(args)
        if args.command == "lifetime":
            return _cmd_lifetime(args)
        return _cmd_simulate(args)
    except _CliError as exc:
        print(f"error: {exc.code}: {exc.detail}", file=sys.stderr)
        return exc.code
    except NoSolution as exc:
        print(f"error: 3: {exc}", file=sys.stderr)
        return 3
    except ParseError as exc:
        print(f"error: 2: {exc}", file=sys.stderr)
        return 2
    except (ValidationError, ConfigError) as exc:
        print(f"error: 4: {exc}", file=sys.stderr)
        return 4
    except (DomainError, PolicyError) as exc:
        print(f"error: 2: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"error: 2: {exc}", file=sys.stderr)
        return 2


def main_entry():
    raise SystemExit(main())


if __name__ == "__main__":
    main_entry()
