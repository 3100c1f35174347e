"""Event-driven wake-up protocol: latency, addressing, charge accounting."""

import dataclasses
import gc
import hashlib
import math
import sys
import tracemalloc
from unittest import mock

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from iout_wakeup.core import TECHNOLOGIES, Medium, Position3D
from iout_wakeup.energy import (
    ACOUSTIC_ENERGY,
    DEFAULT_ENERGY,
    EnergyProfile,
    WakePolicy,
    energy_profile,
    lifetime_hours,
)
from iout_wakeup.errors import ConfigError, DomainError, PolicyError
from iout_wakeup.scenario import (
    parse_scenario_text,
    scenario_to_json,
    write_events_csv,
    write_summary_csv,
)
from iout_wakeup.sim import (
    ACTIVE,
    ADDRESS_MISMATCH,
    DEPLETED,
    OUT_OF_RANGE,
    SLEEP,
    Buoy,
    Node,
    SimConfig,
    Uav,
    WakeRequest,
    link_fields,
    make_link,
    make_node,
    run,
    simulate_lifetime,
)

RF_DELAY_NS = 33            # round(10 m / 3e8 * 1e9)
ACOUSTIC_100M_NS = 66_666_667  # round(100 m / 1500 * 1e9)
ACOUSTIC_148M_AT_1480_NS = 100_000_000  # round(148 m / 1480 * 1e9); 98_666_667 at 1500


def _config(nodes, requests, horizon_s=100.0, rf_range=100.0, transmitters=("acoustic", "optical", "mi")):
    return SimConfig(
        uav=Uav(Position3D(0.0, 0.0, -10.0), rf_range_m=rf_range),
        buoys=[Buoy(Position3D(0.0, 0.0, 0.0), transmitters=transmitters)],
        nodes=nodes,
        wake_requests=requests,
        horizon_s=horizon_s,
    )


def test_matched_wake_latency_and_charge():
    node = make_node("acoustic", address=1, depth_m=100.0)
    report = run(_config([node], [WakeRequest(0.0, 1)]))
    nrep = report.nodes[1]
    assert nrep.wakes == 1
    assert nrep.failures == 0
    assert nrep.wake_latencies_s == [(RF_DELAY_NS + ACOUSTIC_100M_NS) / 1e9]
    # one 1 s burst, the rest asleep
    expected = 0.5 * 1.0 / 3600.0 + 0.015 * 99.0 / 3600.0
    assert nrep.charge_consumed_mah == pytest.approx(expected, abs=1e-15)
    assert nrep.final_state == SLEEP


def test_charge_conservation_identity():
    node = make_node("acoustic", address=1, depth_m=100.0)
    report = run(_config([node], [WakeRequest(0.0, 1), WakeRequest(30.0, 1)]))
    nrep = report.nodes[1]
    initial = ACOUSTIC_ENERGY.battery_capacity_mah
    assert abs(initial - nrep.remaining_charge_mah - nrep.charge_consumed_mah) < 1e-9


def test_acoustic_signal_travels_at_its_medium_sound_speed():
    link = make_link("acoustic", sound_speed_m_s=1480.0)
    node = make_node("acoustic", address=1, depth_m=148.0, link_params=link)
    report = run(_config([node], [WakeRequest(0.0, 1)]))
    wake_ns = RF_DELAY_NS + ACOUSTIC_148M_AT_1480_NS
    assert [(e.kind, e.time_ns) for e in report.events if e.actor == "node1"][0] == (
        "node_wake", wake_ns
    )
    assert report.nodes[1].wake_latencies_s == [wake_ns / 1e9]


def test_address_mismatch_keeps_node_asleep():
    node = make_node("acoustic", address=42, depth_m=100.0)
    report = run(_config([node], [WakeRequest(0.0, 7)]))
    nrep = report.nodes[42]
    assert nrep.wakes == 0
    assert nrep.failures == 1
    assert report.failures[0].reason == ADDRESS_MISMATCH
    assert nrep.final_state == SLEEP
    assert not any(e.kind == "node_wake" for e in report.events)


def test_below_sensitivity_is_out_of_range_even_when_matched():
    node = make_node("acoustic", address=1, depth_m=400.0)  # beyond the ~252 m range
    report = run(_config([node], [WakeRequest(0.0, 1)], horizon_s=10.0))
    nrep = report.nodes[1]
    assert nrep.wakes == 0
    assert nrep.failures == 1
    assert report.failures[0].reason == OUT_OF_RANGE
    assert nrep.final_state == SLEEP


def test_uav_out_of_rf_range_blocks_everything():
    node = make_node("acoustic", address=1, depth_m=100.0)
    report = run(_config([node], [WakeRequest(0.0, 1)], rf_range=5.0))
    assert [e.kind for e in report.events] == ["wake_request"]
    assert len(report.failures) == 1
    assert report.failures[0].reason == OUT_OF_RANGE
    assert report.failures[0].actor == "uav"
    nrep = report.nodes[1]
    assert nrep.wakes == 0
    # pure sleep for the whole horizon
    assert nrep.charge_consumed_mah == pytest.approx(0.015 * 100.0 / 3600.0, abs=1e-15)


def test_rf_disabled_buoy_does_not_relay():
    node = make_node("acoustic", address=1, depth_m=100.0)
    config = _config([node], [WakeRequest(0.0, 1)])
    buoy = dataclasses.replace(config.buoys[0], rf_wakeup_enabled=False)
    report = run(dataclasses.replace(config, buoys=[buoy]))
    assert [e.kind for e in report.events] == ["wake_request"]
    assert report.failures[0].detail == "no buoy within rf range"


def test_rf_disabled_near_buoy_moves_the_relay_to_the_far_one():
    node = make_node("acoustic", address=1, depth_m=100.0)
    far = Buoy(Position3D(50.0, 0.0, 0.0))
    for enabled, relay in ((True, "buoy0"), (False, "buoy1")):
        near = Buoy(Position3D(0.0, 0.0, 0.0), rf_wakeup_enabled=enabled)
        config = SimConfig(
            uav=Uav(Position3D(0.0, 0.0, -10.0), rf_range_m=60.0),
            buoys=[near, far],
            nodes=[node],
            wake_requests=[WakeRequest(0.0, 1)],
        )
        report = run(config)
        emitters = {e.actor for e in report.events if e.kind == "wus_emit"}
        assert emitters == ({"buoy0", "buoy1"} if enabled else {relay})
        assert report.nodes[1].wakes == 1


def test_times_beyond_the_float_range_are_never_queued():
    # 1e300 s and the 1e308 m slant range overflow a float nanosecond count
    near = make_node("acoustic", address=1, depth_m=100.0)
    far = Node(2, Position3D(1e308, 0.0, 1e300), "acoustic")
    requests = [WakeRequest(0.0, 2), WakeRequest(1e300, 1)]
    report = run(_config([near, far], requests))
    assert report.nodes[1].failures == 1  # address mismatch from the request at t = 0
    assert report.nodes[2].wakes == report.nodes[2].failures == 0
    assert [e.kind for e in report.events].count("wake_request") == 1


def test_depletion_split_beyond_the_float_range():
    # charge * 3600 * 1e9 overflows a float, the depletion instant does not:
    # 1e300 mAh at 1e300 mA lasts 3600 s from the wake
    energy = EnergyProfile(1e300, 1e300, 1.0, 1e5)
    node = make_node("acoustic", address=1, depth_m=100.0, energy=energy)
    report = run(_config([node], [WakeRequest(0.0, 1)], horizon_s=1e5))
    assert report.nodes[1].depleted
    assert report.nodes[1].depleted_at_s == (RF_DELAY_NS + ACOUSTIC_100M_NS) / 1e9 + 3600.0


def test_event_times_beyond_64_bits_are_exact(tmp_path):
    # 1e11 s is 10**20 ns, past 2**64: a time is an exact int at any size
    node = make_node("acoustic", address=1, depth_m=100.0)
    report = run(_config([node], [WakeRequest(1e11, 1)], horizon_s=1e12))
    kinds = [e.kind for e in report.events]
    assert report.events[kinds.index("wake_request")].time_ns == 10**20
    write_events_csv(tmp_path / "events.csv", report)
    lines = (tmp_path / "events.csv").read_text(encoding="utf-8").splitlines()
    row = lines[1 + kinds.index("wake_request")]
    assert row == "100000000000.000000000,uav,wake_request,target=1"


def test_config_rejects_a_charge_beyond_the_float_range():
    # 1e305 mA for 1e5 s is 1e310 mA*s: the run could not account for it
    energy = EnergyProfile(1e300, 1e305, 1.0, 1.0)
    node = make_node("acoustic", address=1, depth_m=100.0, energy=energy)
    with pytest.raises(ConfigError, match="charge beyond the float range"):
        run(_config([node], [WakeRequest(0.0, 1)], horizon_s=1e5))


def test_wus_at_active_node_is_ignored():
    node = make_node("acoustic", address=1, depth_m=100.0)
    report = run(_config([node], [WakeRequest(0.0, 1), WakeRequest(0.5, 1)]))
    nrep = report.nodes[1]
    assert nrep.wakes == 1
    assert nrep.failures == 0
    assert any(e.detail == "ignored_active" for e in report.events)
    assert nrep.final_state == SLEEP


def _two_relay_config(requests):
    """Node 1 between two relaying buoys, 200 m apart, with a 50 ms burst
    that ends before the far buoy's signal arrives."""
    energy = dataclasses.replace(ACOUSTIC_ENERGY, active_duration_s=0.05)
    return SimConfig(
        uav=Uav(Position3D(0.0, 0.0, -10.0), rf_range_m=300.0),
        buoys=[Buoy(Position3D(0.0, 0.0, 0.0)), Buoy(Position3D(200.0, 0.0, 0.0))],
        nodes=[Node(1, Position3D(0.0, 0.0, 50.0), "acoustic", energy=energy)],
        wake_requests=requests,
        horizon_s=10.0,
    )


def test_one_request_wakes_a_node_once():
    report = run(_two_relay_config([WakeRequest(0.0, 1)]))
    nrep = report.nodes[1]
    assert nrep.wakes == 1
    assert nrep.wake_latencies_s == [(RF_DELAY_NS + 33_333_333) / 1e9]  # the near buoy
    assert nrep.failures == 0 and report.failures == []
    arrivals = [(e.time_s, e.detail) for e in report.events if e.kind == "wus_arrival"]
    # the far buoy's relay lands ~0.137 s in, after the node went back to sleep
    assert [detail for _, detail in arrivals] == ["duplicate_request"]
    assert arrivals[0][0] == pytest.approx(0.1374, abs=1e-4)
    assert nrep.final_state == SLEEP


def test_a_new_request_wakes_the_node_again():
    report = run(_two_relay_config([WakeRequest(0.0, 1), WakeRequest(1.0, 1)]))
    assert report.nodes[1].wakes == 2
    details = [e.detail for e in report.events if e.kind == "wus_arrival"]
    assert details == ["duplicate_request", "duplicate_request"]


def test_a_request_listed_twice_is_one_request():
    # Both listings emit, but the node wakes once: a request is one object,
    # not one place in the list.
    r = WakeRequest(0.0, 1)
    report = run(_two_relay_config([r, r]))
    relays = [(0, "uav", "wake_request", "target=1")] * 2
    for ns, buoy in ((33, "buoy0"), (667, "buoy1")):
        relays += [(ns, buoy, "rf_arrival", "target=1"),
                   (ns, buoy, "wus_emit", "tech=acoustic target=1")] * 2
    assert [(e.time_ns, e.actor, e.kind, e.detail) for e in report.events] == relays + [
        (33_333_366, "node1", "node_wake", "latency_s=0.033333366"),
        (33_333_366, "node1", "wus_arrival", "ignored_active"),
        (83_333_366, "node1", "node_sleep", ""),
        (137_437_521, "node1", "wus_arrival", "duplicate_request"),
        (137_437_521, "node1", "wus_arrival", "duplicate_request"),
    ]
    assert report.failures == []
    assert report.nodes[1].wakes == 1
    assert report.nodes[1].wake_latencies_s == [0.033333366]


def test_back_to_back_requests_keep_node_active():
    # one request per burst duration: the node re-wakes the instant it sleeps
    node = make_node("acoustic", address=1, depth_m=100.0)
    requests = [WakeRequest(float(k), 1) for k in range(20)]
    report = run(_config([node], requests, horizon_s=30.0))
    nrep = report.nodes[1]
    assert nrep.wakes == 20


def test_depleted_node_records_depleted_failure():
    energy = EnergyProfile(0.0001, 0.5, 0.015, 1.0)  # dies after 24 s of sleep
    node = make_node("acoustic", address=1, depth_m=100.0, energy=energy)
    report = run(_config([node], [WakeRequest(50.0, 1)], horizon_s=80.0))
    nrep = report.nodes[1]
    assert nrep.depleted
    assert nrep.depleted_at_s == pytest.approx(0.0001 / 0.015 * 3600.0, rel=1e-6)
    assert nrep.wakes == 0
    assert report.failures[0].reason == DEPLETED
    assert nrep.remaining_charge_mah >= 0.0
    assert any(e.kind == "node_depleted" for e in report.events)


def test_event_log_time_ordered():
    nodes = [
        make_node("acoustic", address=1, depth_m=100.0),
        make_node("optical", address=2, depth_m=30.0),
        make_node("mi", address=3, depth_m=20.0),
    ]
    requests = [WakeRequest(0.0, 1), WakeRequest(0.0, 2), WakeRequest(1.0, 3)]
    report = run(_config(nodes, requests))
    times = [e.time_ns for e in report.events]
    assert times == sorted(times)


def test_acoustic_latency_exceeds_optical_and_mi():
    nodes = [
        make_node("acoustic", address=1, depth_m=100.0),
        make_node("optical", address=2, depth_m=100.0, sensitivity_dbm=-75.0),
        make_node("mi", address=3, depth_m=100.0, sensitivity_dbm=-95.0),
    ]
    requests = [WakeRequest(0.0, 1), WakeRequest(0.0, 2), WakeRequest(0.0, 3)]
    report = run(_config(nodes, requests))
    lat = {addr: report.nodes[addr].wake_latencies_s[0] for addr in (1, 2, 3)}
    assert lat[2] == lat[3]
    assert lat[1] > lat[2]


def test_determinism_identical_reports():
    nodes = [
        make_node("acoustic", address=1, depth_m=100.0),
        make_node("optical", address=2, depth_m=30.0),
    ]
    requests = [WakeRequest(0.0, 1), WakeRequest(0.25, 2), WakeRequest(2.0, 9)]
    cfg = _config(nodes, requests)
    assert run(cfg) == run(cfg)


def test_unknown_target_broadcasts_and_mismatches():
    node = make_node("acoustic", address=1, depth_m=100.0)
    report = run(_config([node], [WakeRequest(0.0, 999)]))
    assert report.nodes[1].failures == 1
    assert report.failures[0].reason == ADDRESS_MISMATCH


def test_buoy_without_matching_transmitter():
    node = make_node("acoustic", address=1, depth_m=100.0)
    report = run(
        _config([node], [WakeRequest(0.0, 1)], transmitters=("optical", "mi"))
    )
    assert report.nodes[1].wakes == 0
    assert report.failures[0].reason == OUT_OF_RANGE
    assert "transmitter" in report.failures[0].detail


def test_config_rejects_duplicate_addresses():
    nodes = [make_node("acoustic", address=1), make_node("optical", address=1, depth_m=20.0)]
    with pytest.raises(ConfigError):
        run(_config(nodes, []))


def test_config_rejects_repeated_transmitter():
    # a buoy listing a technology twice would emit every broadcast twice
    with pytest.raises(ConfigError, match="repeated transmitter technology"):
        Buoy(Position3D(0.0, 0.0, 0.0), transmitters=("acoustic", "mi", "acoustic"))


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf, 10**400, "x", None],
                         ids=["nan", "inf", "-inf", "int-beyond-float", "string", "none"])
def test_buoy_rejects_a_non_finite_rf_sensitivity(value):
    with pytest.raises(DomainError, match="^rf_sensitivity_dbm must be finite: "):
        Buoy(Position3D(0.0, 0.0, 0.0), rf_sensitivity_dbm=value)


@pytest.mark.parametrize("value", [-100.0, -90, -sys.float_info.max, 10**300],
                         ids=["default", "int", "float-min", "int-near-float-max"])
def test_a_buoy_that_builds_round_trips(value):
    buoy = Buoy(Position3D(0.0, 0.0, 0.0), rf_sensitivity_dbm=value)
    config = _config([make_node("acoustic", address=1, depth_m=100.0)], [WakeRequest(0.0, 1)])
    config = dataclasses.replace(config, buoys=[buoy])
    parsed = parse_scenario_text(scenario_to_json(config))
    assert parsed.buoys[0].rf_sensitivity_dbm == float(value)


def test_config_rejects_node_above_surface():
    with pytest.raises(ConfigError):
        run(_config([make_node("acoustic", depth_m=-5.0)], []))


# A horizon is checked by the config's constructor, a field of a record by the
# record's, so each case only builds the config or the record.
@pytest.mark.parametrize(
    "change,error",
    [
        (lambda c: dataclasses.replace(c, horizon_s=float("nan")), ConfigError),
        (lambda c: dataclasses.replace(c, horizon_s=float("inf")), ConfigError),
        (lambda c: dataclasses.replace(c, horizon_s=1e300), ConfigError),
        (lambda c: dataclasses.replace(c, horizon_s=10**400), ConfigError),
        (lambda c: dataclasses.replace(c, horizon_s=4e-10), ConfigError),
        # a bool is a number of the wrong type, not a 1 s horizon
        (lambda c: dataclasses.replace(c, horizon_s=True), ConfigError),
        (lambda c: Uav(c.uav.position, float("nan")), DomainError),
        (lambda c: Uav(c.uav.position, 0.0), ConfigError),
        (lambda c: make_node("acoustic", sensitivity_dbm=float("nan")), DomainError),
        (lambda c: WakeRequest(float("nan"), 1), DomainError),
        (lambda c: WakeRequest(float("inf"), 1), DomainError),
        (lambda c: WakeRequest(10**400, 1), DomainError),
        # an int beyond the float range is not finite either
        (lambda c: make_node("acoustic", sensitivity_dbm=10**400), DomainError),
        # an address is an exact int, as in a scenario; a NaN one is not finite
        (lambda c: make_node("acoustic", address=1.5), ConfigError),
        (lambda c: make_node("acoustic", address=1.0), ConfigError),
        (lambda c: make_node("acoustic", address=True), ConfigError),
        (lambda c: make_node("acoustic", address=float("nan")), DomainError),
        (lambda c: WakeRequest(0.0, 1.5), ConfigError),
        (lambda c: WakeRequest(0.0, True), ConfigError),
        # each field holds the type a scenario would give it
        (lambda c: WakeRequest(True, 1), ConfigError),
        (lambda c: make_node("acoustic", sensitivity_dbm=True), ConfigError),
        (lambda c: make_link("mi", turns_tx=True), ConfigError),
        (lambda c: make_link("mi", turns_tx=2.5), ConfigError),
        # no link takes a medium as such, only its two fields by name
        (lambda c: make_link("optical", medium=5), DomainError),
        (lambda c: make_link("mi", medium=5), DomainError),
        (lambda c: Buoy(Position3D(0.0, 0.0, 0.0), rf_wakeup_enabled="no"), ConfigError),
        (lambda c: Buoy(Position3D(0.0, 0.0, 0.0), rf_wakeup_enabled=1), ConfigError),
        # a value that is not a number, a position or a profile is a typed
        # error, not a TypeError or an AttributeError
        (lambda c: dataclasses.replace(c, horizon_s="10"), ConfigError),
        (lambda c: dataclasses.replace(c, horizon_s=None), ConfigError),
        (lambda c: WakeRequest("0", 1), DomainError),
        (lambda c: WakeRequest(None, 1), DomainError),
        (lambda c: make_node("acoustic", address="1"), DomainError),
        (lambda c: make_node("acoustic", sensitivity_dbm=[]), DomainError),
        (lambda c: Position3D(None, 0.0, 1.0), DomainError),
        (lambda c: Node(1, (0.0, 0.0, 10.0), "acoustic"), DomainError),
        (lambda c: Uav((0.0, 0.0, -10.0)), DomainError),
        (lambda c: make_node("acoustic", energy={"battery_capacity_mah": 950.0}), DomainError),
        (lambda c: make_node("acoustic", energy="x"), DomainError),
    ],
    ids=["nan-horizon", "inf-horizon", "horizon-beyond-ns", "int-horizon-beyond-float",
         "horizon-under-1-ns", "bool-horizon", "nan-rf-range", "zero-rf-range",
         "nan-sensitivity", "nan-request-time", "inf-request-time",
         "int-request-time-beyond-float", "int-sensitivity-beyond-float",
         "float-address", "integral-float-address", "bool-address", "nan-address",
         "float-request-address", "bool-request-address", "bool-request-time",
         "bool-sensitivity", "bool-turns", "float-turns", "int-optical-medium", "int-mi-medium",
         "string-rf-enabled", "int-rf-enabled",
         "string-horizon", "none-horizon", "string-request-time", "none-request-time",
         "string-address", "list-sensitivity", "none-coordinate", "tuple-node-position",
         "tuple-uav-position", "dict-energy", "string-energy"],
)
def test_config_rejects_non_finite_values(change, error):
    config = _config([make_node("acoustic", address=1, depth_m=100.0)], [])
    with pytest.raises(error):
        change(config)
        run(config)


# A library caller's config or buoy holding something other than the records
# it lists: a ConfigError naming the field, not an AttributeError or TypeError.
@pytest.mark.parametrize(
    "change,message",
    [
        (lambda c: dataclasses.replace(c, uav="x"), r"^uav must be a Uav: 'x'$"),
        (lambda c: dataclasses.replace(c, nodes=None), r"^nodes must be a list: None$"),
        (lambda c: dataclasses.replace(c, wake_requests=None),
         r"^wake_requests must be a list: None$"),
        (lambda c: dataclasses.replace(c, nodes=[*c.nodes, "x"]),
         r"^nodes\[1\] must be a Node: 'x'$"),
        (lambda c: dataclasses.replace(c, buoys=[c.uav]), r"^buoys\[0\] must be a Buoy: Uav\("),
        (lambda c: dataclasses.replace(c, wake_requests=[*c.wake_requests, 1]),
         r"^wake_requests\[1\] must be a WakeRequest: 1$"),
        (lambda c: Buoy(Position3D(0.0, 0.0, 0.0), transmitters=5),
         r"^transmitters must be a tuple of technologies: 5$"),
    ],
    ids=["string-uav", "none-nodes", "none-requests", "string-node", "uav-as-buoy",
         "int-request", "int-transmitters"],
)
def test_config_rejects_a_value_that_is_not_its_record(change, message):
    config = _config([make_node("acoustic", address=1, depth_m=100.0)], [WakeRequest(0.0, 1)])
    with pytest.raises(ConfigError, match=message):
        change(config)
        run(config)


# The rules that span records are checked when a config is built, before
# any run; a config derived with dataclasses.replace is built again.
@pytest.mark.parametrize(
    "change,message",
    [
        (lambda c: SimConfig(c.uav, [], c.nodes), r"^config needs at least one buoy$"),
        (lambda c: dataclasses.replace(c, nodes=[*c.nodes, make_node("mi", address=1)]),
         r"^duplicate address: 1$"),
        (lambda c: dataclasses.replace(c, horizon_s=float("nan")),
         r"^horizon must be positive and finite in whole ns: nan$"),
        (lambda c: dataclasses.replace(c, nodes=[make_node("acoustic", depth_m=0.5)]),
         r"^node 1 closer than the link model's reference distance to buoy 0$"),
    ],
    ids=["no-buoy", "duplicate-address", "nan-horizon", "closer-than-the-law"],
)
def test_a_config_is_checked_when_built(change, message):
    config = _config([make_node("acoustic", address=1, depth_m=100.0)], [WakeRequest(0.0, 1)])
    with pytest.raises(ConfigError, match=message):
        change(config)


def test_a_config_holds_tuples_and_cannot_be_changed():
    node, request = make_node("acoustic", address=1, depth_m=100.0), WakeRequest(0.0, 1)
    config = _config([node], [request])
    assert (config.nodes, config.wake_requests) == ((node,), (request,))
    assert isinstance(config.buoys, tuple)
    assert SimConfig(config.uav, config.buoys, config.nodes).wake_requests == ()
    with pytest.raises(dataclasses.FrozenInstanceError):
        config.horizon_s = 1.0


def test_a_config_holds_its_horizon_as_a_float():
    # as a record's float field holds an int, and as a parsed scenario does
    config = _config([make_node("acoustic", address=1, depth_m=100.0)], [], horizon_s=100)
    assert repr(config.horizon_s) == repr(run(config).horizon_s) == "100.0"


def test_a_node_beyond_any_arrival_runs():
    # 1e303 m of water is a wake latency past the float range of whole ns:
    # its node_wake detail reads inf, and the signal never arrives
    node = make_node("acoustic", address=1, depth_m=1e303, sensitivity_dbm=-1e308)
    report = run(_config([node], [WakeRequest(0.0, 1)], horizon_s=10.0))
    assert report.nodes[1].wakes == 0
    assert [e.kind for e in report.events] == ["wake_request", "rf_arrival", "wus_emit"]


def test_config_rejects_wide_addresses():
    with pytest.raises(ConfigError):
        run(_config([make_node("acoustic", address=70_000)], []))


def test_config_rejects_mismatched_link_params():
    from iout_wakeup.optical import OpticalLinkParams

    with pytest.raises(ConfigError, match="link params do not match technology acoustic"):
        make_node("acoustic", address=1, link_params=OpticalLinkParams())


@pytest.mark.parametrize(
    "call,message",
    [
        (lambda: make_link("laser"), "laser"),
        (lambda: link_fields("laser"), "laser"),
        (lambda: energy_profile("laser"), "laser"),
        (lambda: make_link(["mi"]), r"\['mi'\]"),
    ],
    ids=["make-link", "link-fields", "energy-profile", "unhashable-make-link"],
)
def test_unknown_technology_is_a_config_error(call, message):
    # the message a Node with an unknown technology gives
    with pytest.raises(ConfigError, match=f"^unknown technology: {message}$"):
        call()


@pytest.mark.parametrize(
    "call,message",
    [
        (lambda: make_link("acoustic", turns_tx=3), "turns_tx is not a field of the acoustic link"),
        (lambda: make_link("acoustic", water_type="coastal"),
         "water_type is not a field of the acoustic link"),
        (lambda: make_link("mi", water_type="coastal"), "water_type is not a field of the mi link"),
        (lambda: make_link("optical", turns_tx=3, foo=1), "turns_tx is not a field of the optical link"),
        (lambda: make_link("optical", foo=1, turns_tx=3), "foo is not a field of the optical link"),
        (lambda: make_link("acoustic", medium=Medium()), "medium is not a field of the acoustic link"),
        (lambda: make_link("optical", density_kg_m3=1000.0),
         "density_kg_m3 is not a field of the optical link"),
        (lambda: energy_profile("acoustic", foo=1),
         "foo is not a field of the acoustic energy profile"),
        (lambda: energy_profile("mi", capacity_mah=1.0, foo=1),
         "capacity_mah is not a field of the mi energy profile"),
    ],
    ids=["acoustic-turns", "acoustic-water", "mi-water", "first-of-two", "first-of-two-reversed",
         "acoustic-medium", "optical-density", "energy-unknown", "energy-first-of-two"],
)
def test_a_name_a_builder_does_not_take_is_a_domain_error(call, message):
    with pytest.raises(DomainError, match=f"^{message}$"):
        call()


def test_state_is_valid_enum_during_run():
    node = make_node("acoustic", address=1, depth_m=100.0)
    report = run(_config([node], [WakeRequest(0.0, 1)], horizon_s=0.5))
    # horizon inside the active burst: node ends the run still active
    assert report.nodes[1].final_state == ACTIVE


def test_simulate_lifetime_pure_sleep():
    life = simulate_lifetime(make_node("acoustic"), 0.0, 2.0)
    assert life == pytest.approx(950.0 / 0.015, rel=0.01)


def test_simulate_lifetime_matches_closed_form_on_demand_1():
    life = simulate_lifetime(make_node("acoustic"), 1.0, 2.0)
    expected = lifetime_hours(ACOUSTIC_ENERGY, WakePolicy.on_demand(1.0))
    assert life == pytest.approx(expected, rel=0.01)


def test_simulate_lifetime_always_active():
    life = simulate_lifetime(make_node("acoustic"), 3600.0, 0.5)
    assert life == pytest.approx(1900.0, rel=0.01)


def test_simulate_lifetime_requests_are_never_closer_than_the_rate_says():
    # Bursts of 123456789.6 ns at one burst per burst length: a grid of
    # separately rounded instants would put some requests 1 ns closer than
    # a burst, where they find the node active and are ignored (3103.9 h).
    energy = EnergyProfile(950.0, 0.5, 0.015, 0.1234567896)
    rate = 3600 / 0.1234567896
    life = simulate_lifetime(make_node("acoustic", energy=energy), rate, 0.05)
    assert life == pytest.approx(lifetime_hours(energy, WakePolicy.on_demand(rate)), rel=1e-4)


def test_simulate_lifetime_depletion_inside_horizon():
    energy = EnergyProfile(0.0001, 0.5, 0.015, 1.0)
    node = make_node("acoustic", energy=energy)
    life = simulate_lifetime(node, 0.0, 1.0)
    assert life == pytest.approx(0.0001 / 0.015, rel=1e-6)


def test_simulate_lifetime_rejects_overfull_hour():
    with pytest.raises(PolicyError):
        simulate_lifetime(make_node("acoustic"), 3601.0, 1.0)


# The config's own error, naming the horizon in seconds, or as given if it
# is not a number (a bool is not).
@pytest.mark.parametrize(
    "hours,seconds",
    [(float("nan"), "nan"), (float("inf"), "inf"), (-float("inf"), "-inf"), (0.0, "0.0"),
     (-1.0, "-3600.0"), (-1, "-3600"), (1e-13, "3.6e-10"), (1e300, "3.6e\\+303"),
     (10**400, "36" + "0" * 402), ("1", "'1'"), (None, "None"), ([], "\\[\\]"),
     (True, "True")],
    ids=["nan", "inf", "-inf", "zero", "negative", "negative-int", "under-1-ns",
         "ns-beyond-float", "int-beyond-float", "string", "none", "list", "bool"],
)
def test_simulate_lifetime_rejects_bad_horizons(hours, seconds):
    message = f"^horizon must be positive and finite in whole ns: {seconds}$"
    with pytest.raises(ConfigError, match=message):
        simulate_lifetime(make_node("acoustic"), 10.0, hours)


# Capacities, currents and burst lengths at and near both ends of the float range.
_EDGE_VALUES = (5e-324, 1e-310, 1e-300, 1e-9, 0.015, 1.0, 950.0, 1e300, 1e308, sys.float_info.max)


@st.composite
def _profile(draw):
    """A reference energy profile, or a valid one with values near the
    float range's edges."""
    tech = draw(st.sampled_from(TECHNOLOGIES))
    if draw(st.booleans()):
        return tech, DEFAULT_ENERGY[tech]
    value = st.one_of(
        st.sampled_from(_EDGE_VALUES), st.floats(min_value=5e-324, max_value=sys.float_info.max)
    )
    capacity, a, b, burst = draw(value), draw(value), draw(value), draw(value)
    assume(a != b)
    return tech, EnergyProfile(capacity, max(a, b), min(a, b), burst)


@st.composite
def _profile_and_rate(draw):
    """A profile and a wake rate from both sides of its rule."""
    tech, profile = draw(_profile())
    full = 3600.0 / profile.active_duration_s
    rate = draw(st.one_of(
        st.sampled_from([
            math.nan, math.inf, -math.inf, 10**400, -(10**400), -1.0, -5e-324, -0.0, 0.0,
            5e-324, 1e-310, 1.0, full, math.nextafter(full, math.inf),
        ]),
        st.floats(min_value=0.0, max_value=full),
        st.floats(),
        st.integers(min_value=-(10**500), max_value=10**500),
    ))
    return tech, profile, rate


def _raised(call):
    try:
        call()
    except Exception as exc:  # the class is what the property compares
        return type(exc)
    return None


@settings(max_examples=300, deadline=None)
@given(_profile_and_rate())
@example(("acoustic", ACOUSTIC_ENERGY, 10**400))
@example(("optical", DEFAULT_ENERGY["optical"], math.nan))
@example(("mi", DEFAULT_ENERGY["mi"], 5e-324))
@example(("acoustic", EnergyProfile(1e308, 0.5, 0.015, 1.0), 1.0))
@example(("acoustic", EnergyProfile(950.0, 0.5, 5e-324, 1.0), 0.0))
@example(("acoustic", EnergyProfile(5e-324, 0.5, 5e-324, 1.0), 0.0))
def test_simulate_lifetime_rejects_the_rates_the_closed_form_rejects(profile_and_rate):
    tech, profile, rate = profile_and_rate
    closed = _raised(lambda: lifetime_hours(profile, WakePolicy.on_demand(rate)))
    # A run of up to 1000 requests keeps each example fast; more is the
    # ConfigError this property allows.
    with mock.patch("iout_wakeup.sim.MAX_POINTS", 1000):
        simulated = _raised(lambda: simulate_lifetime(make_node(tech, energy=profile), rate, 0.01))
    assert closed in (None, PolicyError, DomainError)
    if closed is not None or profile is DEFAULT_ENERGY[tech]:
        assert simulated is closed
    else:
        # a run may still refuse: too many requests, or a consumed charge
        # that underflows to 0
        assert simulated in (None, ConfigError, DomainError)


def test_simulate_lifetime_rejects_a_consumed_charge_that_underflows():
    # 5e-324 mA for 36 s is 0 mAh in floats, though the closed form gives 1 h
    node = make_node("acoustic", energy=EnergyProfile(5e-324, 0.5, 5e-324, 1.0))
    with pytest.raises(DomainError, match="0.0 mAh consumed"):
        simulate_lifetime(node, 0.0, 0.01)


def test_simulate_lifetime_rejects_a_subnormal_consumed_charge():
    # 7.4e-324 mAh keeps one significant bit and rounds to 9.9e-324: the
    # extrapolation would give 1.04e118 h against the closed form's 1.39e118 h
    profile = EnergyProfile(6.88e-206, 6.88e-206, 5e-324, 5e-324)
    assert lifetime_hours(profile, WakePolicy.on_demand(0.0)) == pytest.approx(1.39e118, rel=1e-2)
    with pytest.raises(DomainError, match="below the normal float range"):
        simulate_lifetime(make_node("acoustic", energy=profile), 0.0, 1.5)


def test_simulate_lifetime_rejects_too_many_requests(monkeypatch):
    # 1e10 h at 10/h: a finite horizon of 1e11 requests, refused unbuilt
    with pytest.raises(ConfigError, match="requests"):
        simulate_lifetime(make_node("acoustic"), 10.0, 1e10)
    # one request per second (the acoustic burst is 1 s): 10 fit in 10 s
    monkeypatch.setattr("iout_wakeup.sim.MAX_POINTS", 10)
    assert simulate_lifetime(make_node("acoustic"), 3600.0, 10 / 3600) > 0.0
    with pytest.raises(ConfigError, match="more than 10 requests"):
        simulate_lifetime(make_node("acoustic"), 3600.0, 11 / 3600)


def test_simulate_lifetime_holds_no_object_per_request():
    # 50,000 requests: the run log's 80 B per request (five events, two
    # 8-byte columns) and a latency slot, well under the ~300 B a list of
    # WakeRequests and their sorted times would add.
    node, rate = make_node("acoustic"), 1200.0
    hours = 50_000 / rate
    simulate_lifetime(node, rate, 1.0)  # warm-up: first-call allocations
    tracemalloc.start()
    try:
        simulate_lifetime(node, rate, hours)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 150 * 50_000


def test_node_defaults_fill_in():
    node = Node(address=5, position=Position3D(0, 0, 10.0), technology="optical")
    assert node.sensitivity_dbm == -53.0
    assert node.energy.active_current_ma == 3.6


def _pinned_config():
    """Two relaying buoys (buoy 1 has no MI transmitter) and an rf-disabled
    one between them, all three technologies, equal-distance arrival ties,
    an unknown-address broadcast and a depleting node."""
    buoys = [
        Buoy(Position3D(0.0, 0.0, 0.0)),
        Buoy(Position3D(40.0, 0.0, 0.0), transmitters=("acoustic", "optical")),
        Buoy(Position3D(20.0, 0.0, 0.0), rf_wakeup_enabled=False),
    ]
    nodes = [
        # equidistant from buoys 0 and 1, whose RF hops tie as well
        Node(1, Position3D(20.0, 0.0, 50.0), "acoustic"),
        # equidistant from buoy 0
        Node(2, Position3D(0.0, 30.0, 40.0), "acoustic"),
        Node(3, Position3D(0.0, -30.0, 40.0), "acoustic"),
        Node(4, Position3D(300.0, 0.0, 100.0), "acoustic"),  # below sensitivity
        Node(10, Position3D(20.0, 0.0, 20.0), "optical"),
        Node(11, Position3D(20.0, 0.0, 90.0), "optical"),
        Node(20, Position3D(20.0, 0.0, 30.0), "mi"),
        Node(21, Position3D(0.0, 0.0, 10.0), "mi",
             energy=EnergyProfile(0.00005, 0.49, 0.043, 1.0)),  # dies at ~4.19 s
    ]
    requests = [
        WakeRequest(0.0, 1),
        WakeRequest(0.0, 10),
        WakeRequest(0.5, 1),
        WakeRequest(1.0, 999),
        WakeRequest(2.0, 20),
        WakeRequest(3.0, 4),
        WakeRequest(3.0, 11),
        WakeRequest(6.0, 21),
    ]
    return SimConfig(
        uav=Uav(Position3D(20.0, 0.0, -10.0), rf_range_m=50.0),
        buoys=buoys,
        nodes=nodes,
        wake_requests=requests,
        horizon_s=20.0,
    )


# SHA-256 of the events CSV, the summary CSV and repr(report.failures) of
# the pinned scenario, recorded before the simulator's link table.
PINNED = (
    "935c8f2d0c85f3acb3b0cd5f1b176cf71e150a7340b118d8ad5132bc14b1017a",
    "03b1ffeed045788ce50dfd02b4c54599313d02c39823801a2187a3c101f886aa",
    "7ec358b74769a38622ecf45f297e797f75178cd479307f28dfabcddbed7b7c1a",
)
# SHA-256 of repr(report.events) of the pinned scenario, recorded while the
# records were frozen dataclasses.
PINNED_EVENTS_REPR = "798c176b2e952f6acfc3cca2f91968072c7d1e7f4483a4618a3d790f4a9dc249"


def test_pinned_scenario_outputs(tmp_path):
    report = run(_pinned_config())
    write_events_csv(tmp_path / "events.csv", report)
    write_summary_csv(tmp_path / "summary.csv", report)
    digests = (
        hashlib.sha256((tmp_path / "events.csv").read_bytes()).hexdigest(),
        hashlib.sha256((tmp_path / "summary.csv").read_bytes()).hexdigest(),
        hashlib.sha256(repr(report.failures).encode()).hexdigest(),
    )
    assert digests == PINNED


def test_pinned_scenario_event_records():
    report = run(_pinned_config())
    assert hashlib.sha256(repr(report.events).encode()).hexdigest() == PINNED_EVENTS_REPR


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_out_of_range_iff_below_sensitivity(data):
    # one node per technology straight under the buoy, each sent its own request
    nodes = []
    for address, tech in enumerate(TECHNOLOGIES, start=1):
        node = make_node(tech, address=address)
        depth = data.draw(st.floats(*node.link_params.sweep_range_m), label=tech)
        nodes.append(dataclasses.replace(node, position=Position3D(0.0, 0.0, depth)))
    config = _config(nodes, [WakeRequest(0.0, node.address) for node in nodes])
    report = run(config)
    buoy = config.buoys[0].position
    for node in nodes:
        rx_dbm = node.link_params.rx_dbm(buoy.distance_to(node.position))
        events = [e.detail for e in report.events
                  if e.actor == f"node{node.address}" and e.kind == "wus_arrival"]
        failures = [f for f in report.failures if f.actor == f"node{node.address}"]
        if rx_dbm < node.sensitivity_dbm:
            assert events == [f"below_sensitivity rx_dbm={rx_dbm:.3f}"]
            assert [(f.reason, f.detail) for f in failures] == [(
                OUT_OF_RANGE,
                f"rx {rx_dbm:.3f} dBm below sensitivity {node.sensitivity_dbm:.3f} dBm",
            )]
            assert report.nodes[node.address].wakes == 0
        else:
            assert events == [] and failures == []
            assert report.nodes[node.address].wakes == 1


@pytest.mark.parametrize("enabled", [True, False], ids=["gc-enabled", "gc-disabled"])
@pytest.mark.parametrize("valid", [True, False], ids=["valid", "config-error"])
def test_run_leaves_the_collector_as_it_found_it(enabled, valid):
    config = _pinned_config()
    was_enabled = gc.isenabled()
    (gc.enable if enabled else gc.disable)()
    try:
        if valid:
            run(config)
        else:
            with pytest.raises(ConfigError):
                run(dataclasses.replace(config, horizon_s=float("nan")))
        assert gc.isenabled() is enabled
    finally:
        (gc.enable if was_enabled else gc.disable)()
