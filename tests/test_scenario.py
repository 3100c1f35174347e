"""Scenario parsing, validation, serialization round trips, presets, CSV."""

import json
import math
import os
import random
import sys
import tempfile
from decimal import Decimal
from types import SimpleNamespace

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from iout_wakeup.core import TECHNOLOGIES, Position3D
from iout_wakeup.energy import DEFAULT_ENERGY
from iout_wakeup.errors import DomainError, ParseError, ValidationError
from iout_wakeup.scenario import (
    _BLOCK_LINES,
    PRESET_NAMES,
    fmt6,
    lifetime_csv,
    load_preset,
    parse_scenario,
    parse_scenario_text,
    preset_text,
    scenario_to_json,
    write_events_csv,
    write_lifetime_csv,
    write_range_sweep_csv,
    write_summary_csv,
)
from iout_wakeup.sim import Buoy, SimConfig, Uav, WakeRequest, make_node, run

MINIMAL = json.dumps(
    {
        "buoys": [{"position": [0, 0, 0]}],
        "nodes": [{"address": 1, "position": [0, 0, 50], "tech": "acoustic"}],
        "wake_requests": [{"time_s": 0, "target_address": 1}],
    }
)


def test_minimal_scenario_fills_defaults():
    config = parse_scenario_text(MINIMAL)
    assert config.horizon_s == 3600.0
    assert config.uav.position.z == -10.0
    node = config.nodes[0]
    assert node.sensitivity_dbm == -10.0
    assert node.link_params.source_level_db == 190.0
    assert node.link_params.frequency_khz == 8.0
    assert node.energy.battery_capacity_mah == 950.0
    report = run(config)
    assert report.nodes[1].wakes == 1


def test_node_above_surface_rejected():
    bad = json.loads(MINIMAL)
    bad["nodes"][0]["position"] = [0, 0, -5]
    with pytest.raises(ValidationError, match="node above surface"):
        parse_scenario_text(json.dumps(bad))


def test_unknown_keys_rejected():
    bad = json.loads(MINIMAL)
    bad["swell_height"] = 2.0
    with pytest.raises(ValidationError, match="unknown key"):
        parse_scenario_text(json.dumps(bad))
    bad = json.loads(MINIMAL)
    bad["nodes"][0]["colour"] = "yellow"
    with pytest.raises(ValidationError, match="nodes\\[0\\]"):
        parse_scenario_text(json.dumps(bad))
    # the document's one medium gives an acoustic link its medium fields
    bad = json.loads(MINIMAL)
    bad["nodes"][0]["link"] = {"sound_speed_m_s": 1480.0}
    with pytest.raises(ValidationError, match="^nodes\\[0\\].link: unknown key 'sound_speed_m_s'$"):
        parse_scenario_text(json.dumps(bad))


def test_missing_required_key_rejected():
    bad = json.loads(MINIMAL)
    del bad["nodes"][0]["address"]
    with pytest.raises(ValidationError, match="address"):
        parse_scenario_text(json.dumps(bad))


def test_water_type_and_extinction_are_exclusive():
    doc = json.loads(MINIMAL)
    doc["nodes"][0].update(
        {"tech": "optical", "link": {"water_type": "harbor", "extinction_per_m": 0.1}}
    )
    with pytest.raises(ValidationError, match="not both"):
        parse_scenario_text(json.dumps(doc))


def test_unknown_water_type_rejected():
    doc = json.loads(MINIMAL)
    doc["nodes"][0].update({"tech": "optical", "link": {"water_type": "muddy"}})
    message = "nodes\\[0\\]\\.link: unknown water type 'muddy': expected one of"
    with pytest.raises(ValidationError, match=message):
        parse_scenario_text(json.dumps(doc))


def test_water_type_resolves_extinction():
    doc = json.loads(MINIMAL)
    doc["nodes"][0].update({"tech": "optical", "link": {"water_type": "coastal"}})
    config = parse_scenario_text(json.dumps(doc))
    assert config.nodes[0].link_params.extinction_per_m == 0.305


@pytest.mark.parametrize("tech", ["acoustic", "optical", "mi"])
def test_partial_energy_block_takes_technology_defaults(tech):
    doc = json.loads(MINIMAL)
    doc["nodes"][0].update({"tech": tech, "energy": {"capacity_mah": 100}})
    energy = parse_scenario_text(json.dumps(doc)).nodes[0].energy
    base = DEFAULT_ENERGY[tech]
    assert energy.battery_capacity_mah == 100.0
    assert energy.active_current_ma == base.active_current_ma
    assert energy.sleep_current_ma == base.sleep_current_ma
    assert energy.active_duration_s == base.active_duration_s


def test_malformed_json_is_parse_error_with_location():
    with pytest.raises(ParseError, match="line"):
        parse_scenario_text('{"buoys": [}')


def test_round_trip_identity():
    config = parse_scenario_text(MINIMAL)
    text = scenario_to_json(config)
    assert parse_scenario_text(text) == config
    # a second round trip is byte-stable as well
    assert scenario_to_json(parse_scenario_text(text)) == text


def test_parse_from_file(tmp_path):
    path = tmp_path / "scenario.json"
    path.write_text(MINIMAL, encoding="utf-8")
    config = parse_scenario(path)
    assert config.nodes[0].address == 1


def test_presets_load_and_wake_their_node():
    for name in PRESET_NAMES:
        config = load_preset(name)
        report = run(config)
        assert report.nodes[1].wakes == 1, name
        assert report.failures == [], name


def test_unknown_preset_rejected():
    with pytest.raises(ValidationError):
        load_preset("mystery-preset")


def test_fmt6_plain_decimal():
    assert fmt6(1900.0) == "1900"
    assert fmt6(62769.56960631367) == "62769.6"
    assert fmt6(0.015134722222) == "0.0151347"
    assert fmt6(3.333e-07) == "0.0000003333"
    assert fmt6(-10.269726481) == "-10.2697"
    assert fmt6(0.0) == "0"
    assert fmt6(float("-inf")) == "-inf"
    assert fmt6(7) == "7"
    assert "e" not in fmt6(1.5e8).lower()


def _fmt6_decimal(x):
    """fmt6 as it was first written, through ``Decimal``."""
    if isinstance(x, int):
        return str(x)
    if x != x:
        return "nan"
    if x in (math.inf, -math.inf):
        return "inf" if x > 0 else "-inf"
    if x == 0.0:
        return "0"
    return format(Decimal(f"{x:.6g}"), "f")


@pytest.mark.parametrize(
    "x",
    [-0.0, 0.0, 5e-324, -5e-324, sys.float_info.max, -sys.float_info.max, 1e-05, 9.999995e-05,
     0.0001, 999999.5, 999999.4, 1e16, -1.5e8, math.inf, -math.inf, math.nan, 7, -(10**30)],
)
def test_fmt6_edge_values_match_decimal(x):
    assert fmt6(x) == _fmt6_decimal(x)


@settings(max_examples=1000, deadline=None)
@given(st.floats(allow_nan=False, allow_infinity=False))
def test_fmt6_matches_decimal_on_every_finite_float(x):
    assert fmt6(x) == _fmt6_decimal(x)


# Where the CSV number format is at its edges: numbers that ``%.6g`` writes
# with an exponent or as ``-0``, the ends of the float range, and numbers
# that are not floats.
_CSV_EDGES = (-0.0, 0.0, math.nan, math.inf, -math.inf, 5e-324, -5e-324, 1e-310,
              sys.float_info.max, 999999.5, 999999.4, 9.99995e-05, 1e-05, 0.0001, 1.5e8,
              -1.5e8, 7, -3, 10**400, True, False)
_POLICIES = ("no_wakeup", "duty_cycle", "on_demand")


@st.composite
def _csv_columns(draw):
    """Two columns of numbers, up to three blocks of lines long: plain
    floats from a seeded generator, with edge values put in at drawn rows."""
    n = draw(st.integers(0, 3 * _BLOCK_LINES))
    rng = random.Random(draw(st.integers(0, 2**32)))
    columns = [[rng.uniform(-1e5, 1e5) for _ in range(n)] for _ in range(2)]
    edge = st.one_of(st.sampled_from(_CSV_EDGES), st.floats(), st.integers())
    for _ in range(draw(st.integers(0, 6)) if n else 0):
        columns[draw(st.integers(0, 1))][draw(st.integers(0, n - 1))] = draw(edge)
    return columns


def _later_block(value):
    """Two columns of plain floats with ``value`` in the second block of lines."""
    columns = [[float(i) for i in range(2 * _BLOCK_LINES)] for _ in range(2)]
    columns[1][_BLOCK_LINES + 7] = value
    return columns


@settings(max_examples=60, deadline=None)
@given(_csv_columns())
@example(_later_block(-0.0))
@example(_later_block(1.5e8))
@example(_later_block(1e-05))
@example(_later_block(10**400))
@example(_later_block(True))
def test_csv_writers_render_each_number_through_fmt6(columns):
    a, b = columns
    rows = [(x, y, _POLICIES[i % 3]) for i, (x, y) in enumerate(zip(a, b))]
    nodes = {i: SimpleNamespace(address=i, wakes=i % 7, charge_consumed_mah=x,
                                mean_latency_s=y, failures=i % 5)
             for i, (x, y) in enumerate(zip(a, b))}
    expected = {
        "sweep": "distance_m,rx_power_dbm\n"
                 + "".join(f"{fmt6(x)},{fmt6(y)}\n" for x, y in zip(a, b)),
        "lifetime": "tx_per_hour,lifetime_h,policy\n"
                    + "".join(f"{fmt6(x)},{fmt6(y)},{p}\n" for x, y, p in rows),
        "summary": "address,wakes,charge_consumed_mah,mean_latency_s,failures\n"
                   + "".join(f"{nr.address},{nr.wakes},{fmt6(nr.charge_consumed_mah)},"
                             f"{fmt6(nr.mean_latency_s)},{nr.failures}\n"
                             for nr in nodes.values()),
    }
    with tempfile.TemporaryDirectory() as tmp:
        paths = {kind: os.path.join(tmp, f"{kind}.csv") for kind in expected}
        write_range_sweep_csv(paths["sweep"], a, b)
        write_lifetime_csv(paths["lifetime"], rows)
        write_summary_csv(paths["summary"], SimpleNamespace(nodes=nodes))
        for kind, text in expected.items():
            with open(paths[kind], "rb") as fh:
                assert fh.read() == text.encode(), kind
    assert "".join(lifetime_csv(rows)) == expected["lifetime"]


# A row of the wrong width is refused, even where the next row makes up for it.
@pytest.mark.parametrize(
    "rows,row", [([(1.0, 2.0, "on_demand"), (3.0, 4.0)], r"\(3\.0, 4\.0\)"),
                 ([(1.0, 2.0), (3.0, 4.0, "on_demand", "duty_cycle")], r"\(1\.0, 2\.0\)")],
    ids=["short", "short-then-long"],
)
def test_lifetime_csv_refuses_a_row_of_the_wrong_width(rows, row):
    with pytest.raises(DomainError, match=f"^a row of this CSV holds 3 values: {row}$"):
        "".join(lifetime_csv(rows))


@pytest.mark.parametrize(
    "distances,powers", [([1.0, 2.0, 3.0], [5.0]), ([1.0], [5.0, 6.0])],
    ids=["more-distances", "more-powers"],
)
def test_sweep_csv_refuses_unequal_columns(distances, powers, tmp_path):
    path = tmp_path / "sweep.csv"
    message = f"^sweep columns differ in length: {len(distances)} distances, {len(powers)} powers$"
    with pytest.raises(DomainError, match=message):
        write_range_sweep_csv(path, distances, powers)
    assert not path.exists()


# Valid documents the mutation property starts from: the presets, the
# minimal scenario, and one that sets every optional key.
FULL = {
    "medium": {"density_kg_m3": 1025.0, "sound_speed_m_s": 1480.0},
    "uav": {"position": [5, 0, -20], "rf_range_m": 500.0},
    "buoys": [
        {"position": [0, 0, 0], "transmitters": ["acoustic", "optical"],
         "rf_wakeup_enabled": True, "rf_sensitivity_dbm": -90.0},
        {"position": [40, 0, 0], "transmitters": ["mi"], "rf_wakeup_enabled": False},
    ],
    "nodes": [
        {"address": 3, "position": [0, 0, 60], "tech": "acoustic",
         "link": {"frequency_khz": 12.0, "spreading_exponent": 15.0}, "sensitivity_dbm": -12.0},
        {"address": 4, "position": [1, 1, 20], "tech": "optical",
         "link": {"water_type": "coastal", "misalignment_beta_deg": 5.0},
         "energy": {"capacity_mah": 10.0, "active_s": 2.0}},
        {"address": 5, "position": [40, 0, 10], "tech": "mi", "link": {"turns_tx": 20}},
    ],
    "wake_requests": [{"time_s": 1.0, "target_address": 4}, {"time_s": 2.5, "target_address": 9}],
    "horizon_s": 60.0,
}
SEEDS = [json.loads(preset_text(name)) for name in PRESET_NAMES] + [json.loads(MINIMAL), FULL]
BAD_VALUES = [
    float("nan"), float("inf"), float("-inf"), 1e300, 0, -1, True, False, "text", [], {}, None,
]


def _locations(doc):
    """Every (container, key) inside a decoded JSON document."""
    items = doc.items() if isinstance(doc, dict) else enumerate(doc)
    for key, value in items:
        yield doc, key
        if isinstance(value, (dict, list)):
            yield from _locations(value)


@st.composite
def mutated_documents(draw):
    doc = json.loads(json.dumps(draw(st.sampled_from(SEEDS))))
    for _ in range(draw(st.integers(1, 3))):
        container, key = draw(st.sampled_from(list(_locations(doc))))
        action = draw(st.sampled_from(["replace", "drop", "add"]))
        if action == "replace":
            container[key] = draw(st.sampled_from(BAD_VALUES))
        elif action == "drop":
            del container[key]
        elif isinstance(container, dict):
            container["unexpected_key"] = 1
    return json.dumps(doc)


@settings(max_examples=300, deadline=None)
@given(mutated_documents())
def test_any_mutated_document_parses_or_is_rejected_and_runs_or_is_rejected(text):
    """A document that parses is a config that runs: every rule that spans
    records is checked while parsing."""
    try:
        config = parse_scenario_text(text)
    except (ParseError, ValidationError):
        return
    assert isinstance(config, SimConfig)
    run(config)


def _late_config(times_s, horizon_s):
    """One node per technology 10 m under a buoy, each address and an
    unknown one requested at the given times."""
    nodes = [make_node(tech, address=a) for a, tech in enumerate(TECHNOLOGIES, start=1)]
    return SimConfig(
        uav=Uav(Position3D(0.0, 0.0, -10.0)),
        buoys=[Buoy(Position3D(0.0, 0.0, 0.0))],
        nodes=nodes,
        wake_requests=[WakeRequest(t, a) for t, a in times_s],
        horizon_s=horizon_s,
    )


@st.composite
def _late_configs(draw):
    """Requests and horizons past 2**23 s, where a float time in seconds
    no longer holds each whole ns (and past 2**64 ns too); the nodes run
    flat from 2.28e8 s on."""
    horizon_s = draw(st.floats(2.0**23, 2.0**50))
    times = st.floats(2.0**23, horizon_s)
    targets = st.sampled_from([1, 2, 3, 9])
    requests = [(draw(times), draw(targets)) for _ in range(draw(st.integers(1, 4)))]
    return _late_config(requests, horizon_s)


@settings(max_examples=100, deadline=None)
@given(_late_configs())
@example(_late_config([(16777219.123456789, 1)], 1e9))
def test_events_csv_times_are_the_logged_times(config):
    report = run(config)
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "events.csv")
        write_events_csv(path, report)
        with open(path, encoding="utf-8") as fh:
            lines = fh.read().splitlines()[1:]
    assert len(lines) == len(report.events)
    for line, event in zip(lines, report.events):
        assert Decimal(line.split(",")[0]) * 10**9 == event.time_ns, line
