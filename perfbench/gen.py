"""Seeded input generators for the benchmark workloads.

Everything here is plain data (dicts, lists, JSON text) derived from one
``random.Random(seed)``; nothing imports the package under test, so the
generated inputs are independent of the code being measured.  The same
seed always yields byte-identical inputs.
"""

import json
import math
import random

TECHS = ("acoustic", "optical", "mi")

# Maximum wake-up ranges of the three presets (README, `sweep-range`
# defaults).  Fan-out nodes are scattered out to 1.25x these radii, so a
# share of every technology's nodes sits below its receiver sensitivity.
PRESET_MAX_RANGE_M = {"acoustic": 252.235, "optical": 78.8237, "mi": 44.0001}
RADIUS_FACTOR = 1.25
MIN_NODE_DISTANCE_M = 2.0  # above every link model's reference distance

# Reference link/energy blocks, as in the bundled presets.
LINK = {
    "acoustic": {"source_level_db": 190.0, "frequency_khz": 8.0, "spreading_exponent": 20.0},
    "optical": {
        "transmit_power_mw": 250.0,
        "aperture_area_m2": 0.0011,
        "divergence_half_angle_deg": 0.25,
        "water_type": "clear_ocean",
        "misalignment_beta_deg": 0.0,
    },
    "mi": {
        "transmit_power_mw": 100.0,
        "frequency_khz": 75.0,
        "turns_tx": 30,
        "turns_rx": 30,
        "coil_radius_tx_m": 0.5,
        "coil_radius_rx_m": 0.5,
        "misalignment_beta_deg": 0.0,
    },
}
SENSITIVITY_DBM = {"acoustic": -10.0, "optical": -53.0, "mi": -69.0}
ENERGY = {
    "acoustic": {"capacity_mah": 950.0, "active_ma": 0.5, "sleep_ma": 0.015, "active_s": 1.0},
    "optical": {"capacity_mah": 950.0, "active_ma": 3.6, "sleep_ma": 0.083, "active_s": 1.0},
    "mi": {"capacity_mah": 950.0, "active_ma": 0.49, "sleep_ma": 0.043, "active_s": 1.0},
}

# sim-fanout: the largest cell of the N x R grid in ROADMAP item 1.
FANOUT_NODES = 1000
FANOUT_REQUESTS = 300
FANOUT_UNKNOWN = 15          # 5% of requests target an address no node has
FANOUT_REPEATS = 30          # re-sent inside the target's 1 s active burst
FANOUT_REPEAT_DELAY_S = 0.25
FANOUT_TINY = 10             # 1% of nodes carry a battery that runs flat
FANOUT_TINY_CAPACITY_MAH = 0.002
FANOUT_HORIZON_S = 3600.0
FANOUT_LAST_REQUEST_S = 3000.0

# sim-lifetime: one node per technology, woken far more often than the
# reference rates; the optical node depletes (~7.6 h) inside the horizon,
# the other two do not.
LIFETIME_RATE_PER_HOUR = 1200.0
LIFETIME_CAPACITY_MAH = 9.5
LIFETIME_HORIZON_H = 8.0


def _position(rng, radius_m):
    """Uniform in the volume of a half-ball below the buoy at the origin."""
    r = max(MIN_NODE_DISTANCE_M, radius_m * rng.random() ** (1.0 / 3.0))
    cos_theta = 1.0 - rng.random()              # (0, 1]: strictly below the surface
    phi = 2.0 * math.pi * rng.random()
    sin_theta = math.sqrt(1.0 - cos_theta * cos_theta)
    x = round(r * sin_theta * math.cos(phi), 3)
    y = round(r * sin_theta * math.sin(phi), 3)
    z = max(round(r * cos_theta, 3), 0.001)
    return [x, y, z]


def fanout_scenario(seed):
    """Scenario document for sim-fanout: one buoy with all three
    transmitters, FANOUT_NODES nodes split evenly over the technologies,
    FANOUT_REQUESTS wake requests."""
    rng = random.Random(seed)
    techs = [TECHS[i % 3] for i in range(FANOUT_NODES)]
    rng.shuffle(techs)
    addresses = rng.sample(range(1, 0x10000), FANOUT_NODES + FANOUT_UNKNOWN)
    node_addresses, unknown = addresses[:FANOUT_NODES], addresses[FANOUT_NODES:]
    tiny = set(rng.sample(range(FANOUT_NODES), FANOUT_TINY))
    nodes = []
    for i, (tech, address) in enumerate(zip(techs, node_addresses)):
        energy = dict(ENERGY[tech])
        if i in tiny:
            energy["capacity_mah"] = FANOUT_TINY_CAPACITY_MAH
        nodes.append(
            {
                "address": address,
                "position": _position(rng, RADIUS_FACTOR * PRESET_MAX_RANGE_M[tech]),
                "tech": tech,
                "link": dict(LINK[tech]),
                "sensitivity_dbm": SENSITIVITY_DBM[tech],
                "energy": energy,
            }
        )
    n_base = FANOUT_REQUESTS - FANOUT_REPEATS
    targets = [rng.choice(node_addresses) for _ in range(n_base - FANOUT_UNKNOWN)] + unknown
    rng.shuffle(targets)
    times = sorted(round(rng.uniform(0.0, FANOUT_LAST_REQUEST_S), 3) for _ in range(n_base))
    requests = list(zip(times, targets))
    unknown = set(unknown)
    known = [r for r in requests if r[1] not in unknown]
    for t, a in rng.sample(known, FANOUT_REPEATS):
        requests.append((round(t + FANOUT_REPEAT_DELAY_S, 3), a))
    requests.sort()
    return {
        "medium": {"density_kg_m3": 1000.0, "sound_speed_m_s": 1500.0},
        "uav": {"position": [0.0, 0.0, -10.0], "rf_range_m": 1000.0},
        "buoys": [{"position": [0.0, 0.0, 0.0], "transmitters": list(TECHS)}],
        "nodes": nodes,
        "wake_requests": [{"time_s": t, "target_address": a} for t, a in requests],
        "horizon_s": FANOUT_HORIZON_S,
    }


def fanout_text(seed):
    return json.dumps(fanout_scenario(seed), indent=1)


def lifetime_nodes(seed):
    """sim-lifetime inputs: one node per technology at a seeded depth and
    address, with the shared rate, capacity and horizon."""
    rng = random.Random(seed)
    return {
        "rate_per_hour": LIFETIME_RATE_PER_HOUR,
        "horizon_hours": LIFETIME_HORIZON_H,
        "nodes": [
            {
                "tech": tech,
                "address": rng.randrange(1, 0x10000),
                "depth_m": round(rng.uniform(5.0, 30.0), 3),
                "energy": dict(ENERGY[tech], capacity_mah=LIFETIME_CAPACITY_MAH),
            }
            for tech in TECHS
        ],
    }


def _grid(rng, lo, hi, n):
    """n increasing values spanning [lo, hi] with a seeded offset."""
    step = (hi - lo) / n
    offset = rng.random() * step
    return [round(lo + offset + i * step, 6) for i in range(n)]


def _sensitivities(rng, tech):
    base = SENSITIVITY_DBM[tech]
    return [round(base + delta + rng.uniform(-0.5, 0.5), 3) for delta in (-3.0, 0.0, 3.0)]


WATER_TYPES = ("pure_sea", "clear_ocean", "coastal", "harbor")
SWEEPS_PER_TECH = 30
SWEEP_POINTS = 500
# Sweep spans are the CLI's `sweep-range` defaults; MI starts at the coil radius.
SWEEP_SPAN_M = {"acoustic": (1.0, 500.0), "optical": (0.1, 150.0), "mi": (0.5, 100.0)}
LIFETIME_RATES = 200


def link_budget(seed):
    """link-budget inputs: a max-range map over each technology's main
    parameters, sweeps drawn from that map, and a lifetime rate grid."""
    rng = random.Random(seed)
    acoustic = [
        {"frequency_khz": f, "spreading_exponent": s}
        for f in _grid(rng, 1.0, 100.0, 370)
        for s in (10.0, 15.0, 20.0)
    ]
    optical = [
        {"water_type": w, "misalignment_beta_deg": b}
        for w in WATER_TYPES
        for b in _grid(rng, 0.0, 85.0, 277)
    ]
    mi = [
        {"turns": n, "misalignment_beta_deg": b}
        for n in range(10, 47)
        for b in _grid(rng, 0.0, 85.0, 30)
    ]
    maps = {"acoustic": acoustic, "optical": optical, "mi": mi}
    sweeps = []
    for tech in TECHS:
        lo, hi = SWEEP_SPAN_M[tech]
        for params in rng.sample(maps[tech], SWEEPS_PER_TECH):
            sweeps.append(
                {"tech": tech, "params": params, "d0": lo, "step": (hi - lo) / (SWEEP_POINTS - 1)}
            )
    return {
        "maps": {
            tech: {"params": maps[tech], "sensitivities_dbm": _sensitivities(rng, tech)}
            for tech in TECHS
        },
        "sweeps": sweeps,
        "sweep_points": SWEEP_POINTS,
        "lifetime_rates": _grid(rng, 0.5, 1000.0, LIFETIME_RATES),
    }


def cli_args(seed):
    """cli-cold inputs: flag values for the nine CLI invocations."""
    rng = random.Random(seed)
    return {
        "sweep": {
            tech: ["--sensitivity-dbm", str(round(SENSITIVITY_DBM[tech] + rng.uniform(-1, 1), 3))]
            for tech in TECHS
        },
        "lifetime": {
            tech: ["--rate-min", "1", "--rate-max", str(rng.randint(8, 12))] for tech in TECHS
        },
        "simulate": ["acoustic-fig3", "optical-fig4", "mi-fig5"],
    }


GENERATORS = {
    "sim-fanout": fanout_text,
    "sim-lifetime": lifetime_nodes,
    "link-budget": link_budget,
    "cli-cold": cli_args,
}


def generate(workload, seed):
    return GENERATORS[workload](seed)
