"""Scenario file ingestion, CSV emission, and the bundled preset scenarios.

Scenarios are JSON documents with top-level keys ``medium``, ``uav``,
``buoys``, ``nodes``, ``wake_requests`` and ``horizon_s``.  Unknown keys
are rejected; omitted values fall back to the per-technology reference
defaults, so a minimal file needs only one buoy, one node and a request.
Units are the field-name suffixes (m, s, mah, ma, dbm, khz, mw).

CSV output is deterministic: mandatory headers, rows in sweep order, and
numbers rendered as plain decimals with six significant digits, so
repeated runs produce byte-identical files.
"""

import json
from dataclasses import fields
from decimal import Decimal
from importlib import resources

from .core import ACOUSTIC, TECHNOLOGIES, Medium, Position3D
from .energy import EnergyProfile, DEFAULT_ENERGY
from .errors import ParseError, ValidationError
from .optical import WaterType, extinction_coefficient
from .sim import LINK_TYPES, Buoy, Node, SimConfig, Uav, WakeRequest

PRESET_NAMES = ("acoustic-fig3", "optical-fig4", "mi-fig5")


# ---------------------------------------------------------------------------
# number formatting

def fmt6(x):
    """Plain-decimal rendering with six significant digits."""
    if isinstance(x, int):
        return str(x)
    if x != x:
        return "nan"
    if x == float("inf"):
        return "inf"
    if x == float("-inf"):
        return "-inf"
    if x == 0.0:
        return "0"
    return format(Decimal(f"{x:.6g}"), "f")


# ---------------------------------------------------------------------------
# schema helpers

def _check_keys(obj, allowed, required, path):
    if not isinstance(obj, dict):
        raise ValidationError(f"{path}: expected an object")
    for key in obj:
        if key not in allowed:
            raise ValidationError(f"{path}: unknown key '{key}'")
    for key in required:
        if key not in obj:
            raise ValidationError(f"{path}: missing required key '{key}'")


def _number(obj, key, path, default=None):
    if key not in obj:
        if default is None:
            raise ValidationError(f"{path}: missing required key '{key}'")
        return default
    value = obj[key]
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ValidationError(f"{path}.{key}: expected a number")
    return float(value)


def _integer(obj, key, path):
    value = obj.get(key)
    if isinstance(value, bool) or not isinstance(value, int):
        raise ValidationError(f"{path}.{key}: expected an integer")
    return value


def _position(obj, key, path):
    value = obj.get(key)
    if (
        not isinstance(value, list)
        or len(value) != 3
        or any(isinstance(v, bool) or not isinstance(v, (int, float)) for v in value)
    ):
        raise ValidationError(f"{path}.{key}: expected [x, y, z] in metres")
    return Position3D(float(value[0]), float(value[1]), float(value[2]))


# ---------------------------------------------------------------------------
# parsing

def _parse_medium(obj, path):
    _check_keys(obj, {"density_kg_m3", "sound_speed_m_s"}, (), path)
    return Medium(
        density_kg_m3=_number(obj, "density_kg_m3", path, 1000.0),
        sound_speed_m_s=_number(obj, "sound_speed_m_s", path, 1500.0),
    )


def _parse_link(tech, obj, medium, path):
    """Link params from the fields of the technology's params class.  The
    acoustic medium comes from the top-level ``medium`` block, and
    ``water_type`` is an alias that resolves ``extinction_per_m``."""
    cls = LINK_TYPES[tech]
    allowed = {f.name for f in fields(cls) if f.type is not Medium}
    if "extinction_per_m" in allowed:
        allowed.add("water_type")
    _check_keys(obj, allowed, (), path)
    kwargs = {}
    for f in fields(cls):
        if f.type is Medium:
            kwargs[f.name] = medium
        elif f.name in obj:
            kwargs[f.name] = (_integer if f.type is int else _number)(obj, f.name, path)
    if "water_type" in obj:
        if "extinction_per_m" in obj:
            raise ValidationError(f"{path}: give water_type or extinction_per_m, not both")
        try:
            kwargs["extinction_per_m"] = extinction_coefficient(WaterType(obj["water_type"]))
        except ValueError:
            raise ValidationError(
                f"{path}.water_type: expected one of {[w.value for w in WaterType]}"
            ) from None
    return cls(**kwargs)


def _parse_energy(tech, obj, path):
    """Energy profile; omitted fields come from the technology's reference profile."""
    _check_keys(obj, {"capacity_mah", "active_ma", "sleep_ma", "active_s"}, (), path)
    base = DEFAULT_ENERGY[tech]
    return EnergyProfile(
        battery_capacity_mah=_number(obj, "capacity_mah", path, base.battery_capacity_mah),
        active_current_ma=_number(obj, "active_ma", path, base.active_current_ma),
        sleep_current_ma=_number(obj, "sleep_ma", path, base.sleep_current_ma),
        active_duration_s=_number(obj, "active_s", path, base.active_duration_s),
    )


def parse_scenario_data(data) -> SimConfig:
    """Validate a decoded scenario document and build the sim config."""
    _check_keys(
        data,
        {"medium", "uav", "buoys", "nodes", "wake_requests", "horizon_s"},
        ("buoys", "nodes"),
        "scenario",
    )
    medium = _parse_medium(data.get("medium", {}), "medium")

    raw_buoys = data["buoys"]
    if not isinstance(raw_buoys, list) or not raw_buoys:
        raise ValidationError("buoys: expected a non-empty list")
    buoys = []
    for i, raw in enumerate(raw_buoys):
        path = f"buoys[{i}]"
        _check_keys(
            raw,
            {"position", "transmitters", "rf_wakeup_enabled", "rf_sensitivity_dbm"},
            ("position",),
            path,
        )
        transmitters = raw.get("transmitters", list(TECHNOLOGIES))
        if not isinstance(transmitters, list) or any(
            t not in TECHNOLOGIES for t in transmitters
        ):
            raise ValidationError(f"{path}.transmitters: expected technologies from {TECHNOLOGIES}")
        enabled = raw.get("rf_wakeup_enabled", True)
        if not isinstance(enabled, bool):
            raise ValidationError(f"{path}.rf_wakeup_enabled: expected a boolean")
        buoys.append(
            Buoy(
                position=_position(raw, "position", path),
                transmitters=tuple(transmitters),
                rf_wakeup_enabled=enabled,
                rf_sensitivity_dbm=_number(raw, "rf_sensitivity_dbm", path, -100.0),
            )
        )

    if "uav" in data:
        path = "uav"
        raw = data["uav"]
        _check_keys(raw, {"position", "rf_range_m"}, ("position",), path)
        uav = Uav(
            position=_position(raw, "position", path),
            rf_range_m=_number(raw, "rf_range_m", path, 1000.0),
        )
    else:
        above = buoys[0].position
        uav = Uav(position=Position3D(above.x, above.y, -10.0), rf_range_m=1000.0)

    raw_nodes = data["nodes"]
    if not isinstance(raw_nodes, list) or not raw_nodes:
        raise ValidationError("nodes: expected a non-empty list")
    nodes = []
    for i, raw in enumerate(raw_nodes):
        path = f"nodes[{i}]"
        _check_keys(
            raw,
            {"address", "position", "tech", "link", "sensitivity_dbm", "energy"},
            ("address", "position", "tech"),
            path,
        )
        tech = raw["tech"]
        if tech not in TECHNOLOGIES:
            raise ValidationError(f"{path}.tech: expected one of {TECHNOLOGIES}")
        position = _position(raw, "position", path)
        if position.z <= 0.0:
            raise ValidationError(f"{path}.position: node above surface (z must be > 0)")
        link = _parse_link(tech, raw.get("link", {}), medium, f"{path}.link")
        energy = (
            _parse_energy(tech, raw["energy"], f"{path}.energy")
            if "energy" in raw
            else DEFAULT_ENERGY[tech]
        )
        sensitivity = (
            _number(raw, "sensitivity_dbm", path) if "sensitivity_dbm" in raw else None
        )
        nodes.append(
            Node(
                address=_integer(raw, "address", path),
                position=position,
                technology=tech,
                link_params=link,
                sensitivity_dbm=sensitivity,
                energy=energy,
            )
        )

    raw_requests = data.get("wake_requests", [])
    if not isinstance(raw_requests, list):
        raise ValidationError("wake_requests: expected a list")
    requests = []
    for i, raw in enumerate(raw_requests):
        path = f"wake_requests[{i}]"
        _check_keys(raw, {"time_s", "target_address"}, ("time_s", "target_address"), path)
        requests.append(
            WakeRequest(
                time_s=_number(raw, "time_s", path),
                target_address=_integer(raw, "target_address", path),
            )
        )

    return SimConfig(
        uav=uav,
        buoys=buoys,
        nodes=nodes,
        wake_requests=requests,
        horizon_s=_number(data, "horizon_s", "scenario", 3600.0),
    )


def parse_scenario_text(text) -> SimConfig:
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(f"line {exc.lineno} column {exc.colno}: {exc.msg}") from None
    return parse_scenario_data(data)


def parse_scenario(path) -> SimConfig:
    """Load, validate and default-fill a scenario JSON file."""
    with open(path, "r", encoding="utf-8") as fh:
        text = fh.read()
    return parse_scenario_text(text)


# ---------------------------------------------------------------------------
# serialization (inverse of parse; emits every resolved field)

def _serialize_link(node: Node):
    p = node.link_params
    return {f.name: getattr(p, f.name) for f in fields(p) if f.type is not Medium}


def serialize_scenario(config: SimConfig) -> dict:
    """Emit the fully resolved scenario document (parse round-trips it)."""
    medium = Medium()
    for node in config.nodes:
        if node.technology == ACOUSTIC:
            medium = node.link_params.medium
            break
    for node in config.nodes:
        if node.technology == ACOUSTIC and node.link_params.medium != medium:
            raise ValidationError("scenario format carries a single global medium")
    return {
        "medium": {
            "density_kg_m3": medium.density_kg_m3,
            "sound_speed_m_s": medium.sound_speed_m_s,
        },
        "uav": {
            "position": [config.uav.position.x, config.uav.position.y, config.uav.position.z],
            "rf_range_m": config.uav.rf_range_m,
        },
        "buoys": [
            {
                "position": [b.position.x, b.position.y, b.position.z],
                "transmitters": list(b.transmitters),
                "rf_wakeup_enabled": b.rf_wakeup_enabled,
                "rf_sensitivity_dbm": b.rf_sensitivity_dbm,
            }
            for b in config.buoys
        ],
        "nodes": [
            {
                "address": n.address,
                "position": [n.position.x, n.position.y, n.position.z],
                "tech": n.technology,
                "link": _serialize_link(n),
                "sensitivity_dbm": n.sensitivity_dbm,
                "energy": {
                    "capacity_mah": n.energy.battery_capacity_mah,
                    "active_ma": n.energy.active_current_ma,
                    "sleep_ma": n.energy.sleep_current_ma,
                    "active_s": n.energy.active_duration_s,
                },
            }
            for n in config.nodes
        ],
        "wake_requests": [
            {"time_s": r.time_s, "target_address": r.target_address}
            for r in config.wake_requests
        ],
        "horizon_s": config.horizon_s,
    }


def scenario_to_json(config: SimConfig) -> str:
    return json.dumps(serialize_scenario(config), indent=2, sort_keys=True)


def preset_text(name) -> str:
    """Bundled reference scenario (one of PRESET_NAMES) as JSON text."""
    if name not in PRESET_NAMES:
        raise ValidationError(f"unknown preset '{name}'; expected one of {PRESET_NAMES}")
    return (resources.files("iout_wakeup") / "presets" / f"{name}.json").read_text(
        encoding="utf-8"
    )


def load_preset(name) -> SimConfig:
    return parse_scenario_text(preset_text(name))


# ---------------------------------------------------------------------------
# CSV emission

def _write_csv(path, header, rows):
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(",".join(header) + "\n")
        for row in rows:
            fh.write(",".join(row) + "\n")


def write_range_sweep_csv(path, distances_m, powers_dbm):
    """Rows of distance_m, rx_power_dbm ordered by distance."""
    rows = [(fmt6(d), fmt6(p)) for d, p in zip(distances_m, powers_dbm)]
    _write_csv(path, ("distance_m", "rx_power_dbm"), rows)


def write_lifetime_csv(path, rows):
    """Rows of (tx_per_hour, lifetime_h, policy) tuples."""
    _write_csv(
        path,
        ("tx_per_hour", "lifetime_h", "policy"),
        [(fmt6(rate), fmt6(hours), policy) for rate, hours, policy in rows],
    )


def write_events_csv(path, report):
    rows = [
        (f"{e.time_ns / 1e9:.9f}", e.actor, e.kind, e.detail) for e in report.events
    ]
    _write_csv(path, ("time_s", "actor", "kind", "detail"), rows)


def write_summary_csv(path, report):
    rows = [
        (
            str(nr.address),
            str(nr.wakes),
            fmt6(nr.charge_consumed_mah),
            fmt6(nr.mean_latency_s),
            str(nr.failures),
        )
        for nr in report.nodes.values()
    ]
    _write_csv(
        path,
        ("address", "wakes", "charge_consumed_mah", "mean_latency_s", "failures"),
        rows,
    )
