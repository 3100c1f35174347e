"""Scenario file ingestion, CSV emission, and the bundled preset scenarios.

Scenarios are JSON documents with top-level keys ``medium``, ``uav``,
``buoys``, ``nodes``, ``wake_requests`` and ``horizon_s``.  Unknown keys
are rejected; omitted values fall back to the per-technology reference
defaults, so a minimal file needs only one buoy, one node and a request.
Units are the field-name suffixes (m, s, mah, ma, dbm, khz, mw).

CSV output is deterministic: mandatory headers, rows in sweep order, and
numbers rendered as plain decimals with six significant digits (``fmt6``),
so repeated runs produce byte-identical files.  Rows of numbers are
rendered a block of lines at a time, in one ``%`` operation per block
wherever that gives ``fmt6``'s text.
"""

import json
import os
from dataclasses import fields
from functools import partial
from itertools import chain, islice

from .core import TECHNOLOGIES, LinkLaw, Medium, Position3D, by_technology, field_value
from .energy import EnergyProfile, energy_profile
from .errors import ConfigError, DomainError, ParseError, ValidationError
from .sim import Buoy, Node, SimConfig, Uav, WakeRequest, link_fields, make_link, seconds_text

PRESET_NAMES = ("acoustic-fig3", "optical-fig4", "mi-fig5")


# ---------------------------------------------------------------------------
# number formatting

def fmt6(x):
    """Plain-decimal rendering with six significant digits: ``f"{x:.6g}"``
    with its exponent, if it has one, written out as zeros.  The one
    definition of the CSV number format: on a float it differs from
    ``%.6g`` only where that has an exponent or reads ``-0``, and
    ``_csv_blocks`` hands every such block to it."""
    if isinstance(x, int):
        return str(x)
    text = f"{x:.6g}"
    mantissa, _, exponent = text.partition("e")
    if not exponent:  # inf, nan, and x that rounds to 1e-4 <= |x| < 1e6
        return "0" if text == "-0" else text
    sign = "-" if mantissa[0] == "-" else ""
    digits = mantissa.lstrip("-").replace(".", "")
    exponent = int(exponent)
    # .6g writes an exponent only below -4 or from 6 on, past its <= 6 digits
    if exponent < 0:
        return f"{sign}0.{'0' * (-exponent - 1)}{digits}"
    return sign + digits + "0" * (exponent + 1 - len(digits))


# ---------------------------------------------------------------------------
# records: JSON key -> dataclass field, one table per scenario record.  A
# key a document leaves out is left out of the constructor call, so the
# dataclass default applies.  Link records take ``sim.link_fields`` but
# the medium's: the document's one ``medium`` fills those.

def _keys(cls, **renamed):
    """Every field of a dataclass under its own name or, for a field in
    ``renamed``, under the key given there."""
    return {renamed.get(f.name, f.name): f.name for f in fields(cls)}


_MEDIUM_KEYS = _keys(Medium)
_UAV_KEYS = _keys(Uav)
_BUOY_KEYS = _keys(Buoy)
_NODE_KEYS = _keys(Node, technology="tech", link_params="link")
# Also the lifetime CLI's energy flags: --capacity-mah sets battery_capacity_mah.
ENERGY_KEYS = {
    "capacity_mah": "battery_capacity_mah",
    "active_ma": "active_current_ma",
    "sleep_ma": "sleep_current_ma",
    "active_s": "active_duration_s",
}
_REQUEST_KEYS = _keys(WakeRequest)
_LINK_KEYS = {t: {n: n for n in link_fields(t) if n not in _MEDIUM_KEYS} for t in TECHNOLOGIES}
_IN_MEDIUM = {t for t in TECHNOLOGIES if _MEDIUM_KEYS.keys() <= link_fields(t).keys()}
_SCENARIO_KEYS = ("medium", "uav", "buoys", "nodes", "wake_requests", "horizon_s")


def _check_keys(obj, allowed, required, path):
    if not isinstance(obj, dict):
        raise ValidationError(f"{path}: expected an object")
    for key in obj:
        if key not in allowed:
            raise ValidationError(f"{path}: unknown key '{key}'")
    for key in required:
        if key not in obj:
            raise ValidationError(f"{path}: missing required key '{key}'")


def _record(make, keys, obj, path, required=()):
    """make(**fields) from the keys obj gives; a value the record rejects is
    a ValidationError at its path.  A null is refused (a record would take
    it for its default), and a position is built from an [x, y, z] list."""
    _check_keys(obj, keys, required, path)
    given = {}
    for key, value in obj.items():
        if value is None:
            raise ValidationError(f"{path}.{key}: expected a value, not null")
        given[keys[key]] = value
    xyz = given.get("position")
    if xyz is not None and not (isinstance(xyz, list) and len(xyz) == 3):
        raise ValidationError(f"{path}.position: expected [x, y, z] in metres")
    try:
        if xyz is not None:
            given["position"] = Position3D(*xyz)
        return make(**given)
    except (DomainError, ConfigError) as exc:
        raise ValidationError(f"{path}: {exc}") from None


def _list(data, key, required):
    value = data[key]
    if not isinstance(value, list) or required and not value:
        raise ValidationError(f"{key}: expected a {'non-empty ' if required else ''}list")
    return value


# ---------------------------------------------------------------------------
# parsing

def _node(links, path, technology, link_params=None, energy=None, **given):
    keys = by_technology(_LINK_KEYS, technology)
    link_params = {} if link_params is None else link_params
    given["link_params"] = _record(links[technology], keys, link_params, f"{path}.link")
    if energy is not None:
        profile = partial(energy_profile, technology)
        given["energy"] = _record(profile, ENERGY_KEYS, energy, f"{path}.energy")
    return Node(technology=technology, **given)


def parse_scenario_data(data) -> SimConfig:
    """Validate a decoded scenario document and build the sim config."""
    _check_keys(data, _SCENARIO_KEYS, ("buoys", "nodes"), "scenario")
    medium = _record(Medium, _MEDIUM_KEYS, data.get("medium", {}), "medium")
    # each technology's link maker, given the medium by name if it runs in one
    links = {t: partial(make_link, t, **(vars(medium) if t in _IN_MEDIUM else {}))
             for t in TECHNOLOGIES}
    buoys = [
        _record(Buoy, _BUOY_KEYS, raw, f"buoys[{i}]", ("position",))
        for i, raw in enumerate(_list(data, "buoys", True))
    ]
    if "uav" in data:
        uav = _record(Uav, _UAV_KEYS, data["uav"], "uav", ("position",))
    else:
        above = buoys[0].position
        uav = Uav(Position3D(above.x, above.y, -10.0))
    nodes = [
        _record(partial(_node, links, f"nodes[{i}]"), _NODE_KEYS, raw, f"nodes[{i}]",
                ("address", "position", "tech"))
        for i, raw in enumerate(_list(data, "nodes", True))
    ]
    given = {}
    if "wake_requests" in data:
        given["wake_requests"] = [
            _record(WakeRequest, _REQUEST_KEYS, raw, f"wake_requests[{i}]", _REQUEST_KEYS)
            for i, raw in enumerate(_list(data, "wake_requests", False))
        ]
    # a rule that spans records is the config's, checked as it is built
    try:
        if "horizon_s" in data:
            given["horizon_s"] = field_value("horizon_s", float, data["horizon_s"])
        return SimConfig(uav=uav, buoys=buoys, nodes=nodes, **given)
    except (DomainError, ConfigError) as exc:
        raise ValidationError(f"scenario: {exc}") from None


def parse_scenario_text(text) -> SimConfig:
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(f"line {exc.lineno} column {exc.colno}: {exc.msg}") from None
    except (ValueError, RecursionError) as exc:  # an int past the digit limit, deep nesting
        raise ParseError(f"unreadable JSON: {exc}") from None
    return parse_scenario_data(data)


def parse_scenario(path) -> SimConfig:
    """Load, validate and default-fill a scenario JSON file."""
    with open(path, "r", encoding="utf-8") as fh:
        try:
            text = fh.read()
        except UnicodeDecodeError as exc:
            raise ParseError(f"{path}: not UTF-8: {exc}") from None
    return parse_scenario_text(text)


# ---------------------------------------------------------------------------
# serialization (inverse of parse; emits every resolved field)

def _dump(obj, keys):
    return {key: _json_value(getattr(obj, name)) for key, name in keys.items()}


def _json_value(value):
    if isinstance(value, Position3D):
        return [value.x, value.y, value.z]
    if isinstance(value, tuple):
        return list(value)
    if isinstance(value, EnergyProfile):
        return _dump(value, ENERGY_KEYS)
    if isinstance(value, LinkLaw):
        return {f.name: getattr(value, f.name) for f in fields(value) if f.type is not Medium}
    return value


def serialize_scenario(config: SimConfig) -> dict:
    """Emit the fully resolved scenario document (parse round-trips it)."""
    media = {v for n in config.nodes for v in vars(n.link_params).values() if isinstance(v, Medium)}
    if len(media) > 1:
        raise ValidationError("scenario format carries a single global medium")
    return {
        "medium": _dump(media.pop() if media else Medium(), _MEDIUM_KEYS),
        "uav": _dump(config.uav, _UAV_KEYS),
        "buoys": [_dump(b, _BUOY_KEYS) for b in config.buoys],
        "nodes": [_dump(n, _NODE_KEYS) for n in config.nodes],
        "wake_requests": [_dump(r, _REQUEST_KEYS) for r in config.wake_requests],
        "horizon_s": config.horizon_s,
    }


def scenario_to_json(config: SimConfig) -> str:
    return json.dumps(serialize_scenario(config), indent=2, sort_keys=True)


def preset_text(name) -> str:
    """Bundled reference scenario (one of PRESET_NAMES) as JSON text."""
    if name not in PRESET_NAMES:
        raise ValidationError(f"unknown preset '{name}'; expected one of {PRESET_NAMES}")
    path = os.path.join(os.path.dirname(__file__), "presets", f"{name}.json")
    with open(path, encoding="utf-8") as fh:
        return fh.read()


def load_preset(name) -> SimConfig:
    return parse_scenario_text(preset_text(name))


# ---------------------------------------------------------------------------
# CSV emission

# Lines rendered and written per block: one call per block, not per line
# or per number, and memory for one block of rows, not the whole file.
_BLOCK_LINES = 1024


def _csv_blocks(header, template, rows):
    """A CSV's header line, then the text of ``rows`` through a line
    ``template``, ``_BLOCK_LINES`` lines at a time.  The template's
    comma-separated fields are ``%.6g`` for a number and ``%s`` for anything
    else, such as a name or an int count.  A block whose numbers are all
    floats is one ``%`` operation, kept unless its text has an exponent or a
    ``-0`` field; ``fmt6`` renders the numbers of any other block."""
    yield header
    columns = template.rstrip("\n").split(",")
    width = len(columns)
    numbers = [i for i, f in enumerate(columns) if f == "%.6g"]
    plain = template.replace("%.6g", "%s")
    rows = iter(rows)
    while block := list(islice(rows, _BLOCK_LINES)):
        if {*map(len, block)} != {width}:  # a short row would shift every later field
            row = next(r for r in block if len(r) != width)
            raise DomainError(f"a row of this CSV holds {width} values: {row!r}")
        values = tuple(chain.from_iterable(block))
        if all({*map(type, values[i::width])} == {float} for i in numbers):
            text = template * len(block) % values
            if not ("e+" in text or "e-" in text or "-0," in text or "-0\n" in text):
                yield text
                continue
        values = list(values)
        for i in numbers:
            values[i::width] = map(fmt6, values[i::width])
        yield plain * len(block) % tuple(values)


def _write_csv(path, blocks):
    """Write the rendered blocks of a CSV, header first."""
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.writelines(blocks)


def write_range_sweep_csv(path, distances_m, powers_dbm):
    """Rows of distance_m, rx_power_dbm ordered by distance, from two
    sequences of equal length."""
    if len(distances_m) != len(powers_dbm):
        raise DomainError(
            f"sweep columns differ in length: {len(distances_m)} distances, "
            f"{len(powers_dbm)} powers"
        )
    rows = zip(distances_m, powers_dbm)
    _write_csv(path, _csv_blocks("distance_m,rx_power_dbm\n", "%.6g,%.6g\n", rows))


def lifetime_csv(rows):
    """The lifetime CSV from (tx_per_hour, lifetime_h, policy) tuples: its
    header, then blocks of lines; ``lifetime`` without --out prints them."""
    return _csv_blocks("tx_per_hour,lifetime_h,policy\n", "%.6g,%.6g,%s\n", rows)


def write_lifetime_csv(path, rows):
    """Rows of (tx_per_hour, lifetime_h, policy) tuples."""
    _write_csv(path, lifetime_csv(rows))


def write_events_csv(path, report):
    lines = report.events.lines(seconds_text, ",{},{},{}\n".format)
    blocks = iter(lambda: "".join(islice(lines, _BLOCK_LINES)), "")
    _write_csv(path, chain(["time_s,actor,kind,detail\n"], blocks))


def write_summary_csv(path, report):
    rows = (
        (nr.address, nr.wakes, nr.charge_consumed_mah, nr.mean_latency_s, nr.failures)
        for nr in report.nodes.values()
    )
    header = "address,wakes,charge_consumed_mah,mean_latency_s,failures\n"
    _write_csv(path, _csv_blocks(header, "%s,%s,%.6g,%.6g,%s\n", rows))
