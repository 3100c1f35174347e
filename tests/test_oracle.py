"""The simulator against two oracles, a deliberately naive reference
engine and the closed-form lifetime of the on-demand policy, and against
itself on the serialized config and on the config a simulated lifetime
documents; its run log against the list of records it replaces; its
records over the full numeric ranges and through the scenario format;
and the closed form's two rate-based policies against each other."""

import itertools
import math
import os
import sys
import tempfile
from functools import partial

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from iout_wakeup.core import LIGHT_SPEED_M_S, TECHNOLOGIES, Medium, Position3D, propagation_delay
from iout_wakeup.energy import (
    DEFAULT_ENERGY,
    EnergyProfile,
    WakePolicy,
    average_current,
    lifetime_hours,
)
from iout_wakeup.errors import ConfigError, DomainError, PolicyError, ValidationError
from iout_wakeup.scenario import parse_scenario_text, scenario_to_json, write_events_csv
from iout_wakeup.sim import (
    ACTIVE,
    ADDRESS_MISMATCH,
    DEPLETED,
    OUT_OF_RANGE,
    SLEEP,
    Buoy,
    FailureRecord,
    Node,
    NodeReport,
    SimConfig,
    SimEvent,
    Uav,
    WakeRequest,
    make_link,
    make_node,
    run,
    simulate_lifetime,
)

# Multiplies the example count of the nine properties below (and nothing
# else), so one CI leg can search longer; 1 when unset.
SCALE = int(os.environ.get("IOUT_ORACLE_EXAMPLES_SCALE", "1"))

NS = 1_000_000_000


def _ns(seconds):
    ns = seconds * NS
    return int(round(ns)) if ns <= sys.float_info.max else math.inf


# ---------------------------------------------------------------------------
# reference engine: a plain list as the queue, every link re-derived at
# every arrival, and the arriving node settled at every arrival and every
# state change

class _RefNode:
    def __init__(self, node):
        self.node, self.actor = node, f"node{node.address}"
        self.state, self.woken_by = SLEEP, None
        self.last = self.active = self.sleep = self.wakes = self.failures = 0
        self.depleted_ns, self.latencies = None, []

    def consumed(self):
        e = self.node.energy
        return (e.active_current_ma * (self.active / NS) / 3600.0
                + e.sleep_current_ma * (self.sleep / NS) / 3600.0)

    def settle(self, now, events):
        delta = now - self.last
        if delta <= 0 or self.depleted_ns is not None:
            self.last = max(self.last, now)
            return
        e = self.node.energy
        current = e.active_current_ma if self.state == ACTIVE else e.sleep_current_ma
        budget = self.node.energy.battery_capacity_mah - self.consumed()
        if current * (delta / NS) / 3600.0 >= budget:
            split = budget * 3600.0 * NS / current
            if split == math.inf:
                split = budget / current * 3600.0 * NS
            delta = int(min(delta, split))
            self.depleted_ns = self.last + delta
            events.append(SimEvent(self.depleted_ns, self.actor, "node_depleted", ""))
        if self.state == ACTIVE:
            self.active += delta
        else:
            self.sleep += delta
        self.last = now


def reference_run(config):
    """(events, failures, nodes) of a valid config, as ``sim.run`` documents them."""
    horizon = _ns(config.horizon_s)
    refs = {node.address: _RefNode(node) for node in config.nodes}
    events, failures, pending, seq = [], [], [], itertools.count()

    def push(time, prio, key, entry):  # the documented queue order
        pending.append((time, prio, key, next(seq), entry))

    def fail(time, reason, actor, detail):
        failures.append(FailureRecord(time, reason, actor, detail))

    for req in config.wake_requests:
        push(_ns(req.time_s), 3, 0, ("request", req))
    while pending:
        item = min(pending)
        pending.remove(item)
        t, entry = item[0], item[4]
        if t > horizon:
            break
        if entry[0] == "request":
            req = entry[1]
            events.append(SimEvent(t, "uav", "wake_request", f"target={req.target_address}"))
            uav = config.uav.position
            relays = [i for i, b in enumerate(config.buoys) if b.rf_wakeup_enabled
                      and uav.distance_to(b.position) <= config.uav.rf_range_m]
            for i in relays:
                hop = uav.distance_to(config.buoys[i].position) / LIGHT_SPEED_M_S
                push(t + _ns(hop), 1, i, ("rf", i, req, t))
            if not relays:
                fail(t, OUT_OF_RANGE, "uav", "no buoy within rf range")
        elif entry[0] == "rf":
            _, i, req, req_t = entry
            buoy, actor, target = config.buoys[i], f"buoy{i}", req.target_address
            events.append(SimEvent(t, actor, "rf_arrival", f"target={target}"))
            techs = buoy.transmitters
            if target in refs:
                tech = refs[target].node.technology
                techs = (tech,) if tech in buoy.transmitters else ()
                if not techs:
                    fail(t, OUT_OF_RANGE, actor, f"no {tech} transmitter for target {target}")
            for tech in techs:
                events.append(SimEvent(t, actor, "wus_emit", f"tech={tech} target={target}"))
                for ref in refs.values():
                    if ref.node.technology == tech:
                        dist = buoy.position.distance_to(ref.node.position)
                        delay = _ns(propagation_delay(ref.node.link_params, dist))
                        push(t + delay, 2, ref.node.address, ("wus", i, ref, req, req_t))
        elif entry[0] == "wus":
            _, i, ref, req, req_t = entry
            node, target = ref.node, req.target_address
            ref.settle(t, events)
            rx = node.link_params.rx_dbm(config.buoys[i].position.distance_to(node.position))
            outcome = failure = None
            if ref.depleted_ns is not None:
                outcome, failure = "depleted", (DEPLETED, f"target={target}")
            elif rx < node.sensitivity_dbm:
                outcome = f"below_sensitivity rx_dbm={rx:.3f}"
                failure = (OUT_OF_RANGE,
                           f"rx {rx:.3f} dBm below sensitivity {node.sensitivity_dbm:.3f} dBm")
            elif target != node.address:
                outcome = f"address_mismatch target={target}"
                failure = (ADDRESS_MISMATCH, f"target={target} local={node.address}")
            elif ref.state == ACTIVE:
                outcome = "ignored_active"
            elif ref.woken_by is req:
                outcome = "duplicate_request"
            if outcome is not None:
                events.append(SimEvent(t, ref.actor, "wus_arrival", outcome))
                if failure is not None:
                    fail(t, failure[0], ref.actor, failure[1])
                    ref.failures += 1
            else:
                latency = (t - req_t) / NS
                ref.state, ref.woken_by = ACTIVE, req
                ref.wakes += 1
                ref.latencies.append(latency)
                events.append(SimEvent(t, ref.actor, "node_wake", f"latency_s={latency:.9f}"))
                push(t + _ns(node.energy.active_duration_s), 0, node.address, ("sleep", ref))
        else:  # sleep
            ref = entry[1]
            ref.settle(t, events)
            if ref.depleted_ns is None and ref.state == ACTIVE:
                ref.state = SLEEP
                events.append(SimEvent(t, ref.actor, "node_sleep", ""))
    for ref in refs.values():
        ref.settle(horizon, events)
    events.sort(key=lambda e: e.time_ns)
    nodes = {}
    for addr in sorted(refs):
        ref = refs[addr]
        consumed = ref.consumed()
        nodes[addr] = NodeReport(
            address=addr, wakes=ref.wakes, wake_latencies_s=ref.latencies,
            charge_consumed_mah=consumed,
            remaining_charge_mah=max(ref.node.energy.battery_capacity_mah - consumed, 0.0),
            failures=ref.failures, depleted=ref.depleted_ns is not None,
            depleted_at_s=None if ref.depleted_ns is None else ref.depleted_ns / NS,
            final_state=ref.state,
        )
    return events, failures, nodes


# ---------------------------------------------------------------------------
# random small configs

def _ulps(x, steps):
    for _ in range(abs(steps)):
        x = math.nextafter(x, math.inf if steps > 0 else 0.0)
    return x


@st.composite
def _charge(draw, active_ma, horizon_s):
    """An initial charge on either side of, or a few ulps from, a small
    multiple of the charge the node would draw if active throughout."""
    always_active = active_ma * horizon_s / 3600.0
    scale = draw(st.sampled_from([0.001, 0.01, 0.05, 0.1, 0.2, 0.5, 1.0, 2.0, 4.0, 8.0, 1e6]))
    return _ulps(always_active * scale, draw(st.integers(-3, 3)))


@st.composite
def _node(draw, address, horizon_s):
    tech = draw(st.sampled_from(TECHNOLOGIES))
    x, y = draw(st.sampled_from([(0.0, 0.0), (20.0, 30.0), (20.0, -30.0), (150.0, 0.0)]))
    depth = draw(st.one_of(st.sampled_from([2.0, 10.0, 50.0, 250.0]), st.floats(2.0, 300.0)))
    profile = DEFAULT_ENERGY[tech]
    burst = draw(st.sampled_from([profile.active_duration_s, 0.05, 0.3, 3.0]))
    # the battery starts full, so a partly drained node is a smaller battery
    capacity = draw(st.one_of(st.just(profile.battery_capacity_mah),
                              _charge(profile.active_current_ma, horizon_s)))
    energy = EnergyProfile(capacity, profile.active_current_ma, profile.sleep_current_ma, burst)
    sensitivity = draw(st.sampled_from([None, None, -120.0, -20.0]))
    return Node(address, Position3D(x, y, depth), tech, sensitivity_dbm=sensitivity,
                energy=energy)


@st.composite
def _config(draw):
    horizon_s = draw(st.sampled_from([0.3, 2.0, 5.0, 20.0]))
    buoys = []
    for _ in range(draw(st.integers(1, 3))):
        transmitters = draw(st.permutations(TECHNOLOGIES))[:draw(st.sampled_from([0, 1, 2, 3, 3]))]
        buoys.append(Buoy(
            Position3D(draw(st.sampled_from([0.0, 40.0, 200.0])), 0.0, 0.0),
            transmitters=tuple(transmitters),
            rf_wakeup_enabled=draw(st.sampled_from([True, True, False])),
        ))
    addresses = draw(st.lists(st.integers(0, 15), min_size=1, max_size=12, unique=True))
    nodes = [draw(_node(address, horizon_s)) for address in addresses]
    targets = st.sampled_from(addresses + addresses + [7, 999, 65535])
    # nextafter(1.0, 2.0) is a later float at the same ns as 1.0: requests
    # sharing an instant out of float order run in config order.  A request
    # at 0.05 s or 0.1 s is made while a broadcast from t = 0 is in flight.
    times = st.sampled_from(
        [0.0, 0.0, 0.05, 0.1, 0.2, 0.5, 1.0, math.nextafter(1.0, 2.0), 1.02, 4.0, 19.9, 25.0]
    )
    requests = [WakeRequest(draw(times), draw(targets)) for _ in range(draw(st.integers(0, 12)))]
    rf_range_m = draw(st.sampled_from([5.0, 50.0, 300.0, 300.0]))
    uav = Uav(Position3D(20.0, 0.0, -10.0), rf_range_m=rf_range_m)
    return SimConfig(uav=uav, buoys=buoys, nodes=nodes, wake_requests=requests,
                     horizon_s=horizon_s)


def _flat_while_woken():
    """A node with half the charge of 2 s of activity, woken at once for a
    3 s burst: it runs flat at ~1 s and then hears a broadcast."""
    charge = 0.5 * DEFAULT_ENERGY["acoustic"].active_current_ma * 2.0 / 3600.0
    energy = EnergyProfile(charge, 0.5, 0.015, 3.0)
    return SimConfig(
        uav=Uav(Position3D(0.0, 0.0, -10.0), rf_range_m=100.0),
        buoys=[Buoy(Position3D(0.0, 0.0, 0.0))],
        nodes=[Node(1, Position3D(0.0, 0.0, 10.0), "acoustic", energy=energy)],
        wake_requests=[WakeRequest(0.0, 1), WakeRequest(1.5, 999)],
        horizon_s=2.0,
    )


def _twin_relays():
    """Two buoys at one spot relay one request to two nodes at one depth,
    listed against address order: every signal arrives at the same ns, and
    only (address, broadcast) orders the four arrivals."""
    buoy = Buoy(Position3D(0.0, 0.0, 0.0), transmitters=("acoustic",))
    return SimConfig(
        uav=Uav(Position3D(0.0, 0.0, -10.0), rf_range_m=100.0),
        buoys=[buoy, buoy],
        nodes=[make_node("acoustic", address=2), make_node("acoustic", address=1)],
        wake_requests=[WakeRequest(0.0, 1)],
        horizon_s=2.0,
    )


def _one_ns_out_of_float_order():
    """Two requests whose times round to one ns, the later float listed
    first: they run in config order, not in float order."""
    return SimConfig(
        uav=Uav(Position3D(0.0, 0.0, -10.0), rf_range_m=100.0),
        buoys=[Buoy(Position3D(0.0, 0.0, 0.0), transmitters=("acoustic",))],
        nodes=[make_node("acoustic", address=1), make_node("acoustic", address=2)],
        wake_requests=[WakeRequest(math.nextafter(1.0, 2.0), 2), WakeRequest(1.0, 1)],
        horizon_s=2.0,
    )


def _one_request_listed_twice():
    """One request object listed twice, relayed by two buoys 200 m apart
    to a node with a 50 ms burst: both listings emit, and the node wakes
    once, as a request is an object, not a place in the list."""
    request = WakeRequest(0.0, 1)
    energy = EnergyProfile(950.0, 0.5, 0.015, 0.05)
    return SimConfig(
        uav=Uav(Position3D(0.0, 0.0, -10.0), rf_range_m=300.0),
        buoys=[Buoy(Position3D(0.0, 0.0, 0.0)), Buoy(Position3D(200.0, 0.0, 0.0))],
        nodes=[Node(1, Position3D(0.0, 0.0, 50.0), "acoustic", energy=energy)],
        wake_requests=[request, request],
        horizon_s=10.0,
    )


def _request_inside_a_lone_broadcast():
    """A request made while a broadcast is in flight and nothing else is
    queued: the broadcast from t = 0 reaches node 1 at 10 m, then waits
    for node 2 at 900 m (0.600000033 s) while the request at 0.1 s runs."""
    return SimConfig(
        uav=Uav(Position3D(0.0, 0.0, -10.0), rf_range_m=100.0),
        buoys=[Buoy(Position3D(0.0, 0.0, 0.0), transmitters=("acoustic",))],
        nodes=[make_node("acoustic", address=1),
               make_node("acoustic", address=2, depth_m=900.0)],
        wake_requests=[WakeRequest(0.0, 2), WakeRequest(0.1, 1)],
        horizon_s=5.0,
    )


def _requests_at_queued_instants():
    """Requests at the exact ns of a queued RF arrival and of a queued
    sleep timer: each queued entry is logged before the request."""
    node = make_node("acoustic", address=1)
    hop = _ns(10.0 / LIGHT_SPEED_M_S)
    woken = hop + _ns(propagation_delay(node.link_params, 10.0))
    asleep = woken + _ns(node.energy.active_duration_s)
    return SimConfig(
        uav=Uav(Position3D(0.0, 0.0, -10.0), rf_range_m=100.0),
        buoys=[Buoy(Position3D(0.0, 0.0, 0.0))],
        nodes=[node],
        wake_requests=[WakeRequest(0.0, 1), WakeRequest(hop / NS, 7),
                       WakeRequest(asleep / NS, 7)],
        horizon_s=20.0,
    )


@settings(max_examples=200 * SCALE, deadline=None)
@given(_config())
@example(_flat_while_woken())
@example(_twin_relays())
@example(_one_ns_out_of_float_order())
@example(_one_request_listed_twice())
@example(_request_inside_a_lone_broadcast())
@example(_requests_at_queued_instants())
def test_engine_matches_the_reference_engine(config):
    report = run(config)
    # A run builds no failure log: the failures are read from the events
    # when first read, then kept, which keeps the fan-out's run cheaper.
    assert "failures" not in vars(report)
    events, failures, nodes = reference_run(config)
    assert report.events == events
    assert report.failures == failures
    assert report.failures is report.failures
    assert report.nodes == nodes


@settings(max_examples=200 * SCALE, deadline=None)
@given(_config())
@example(_flat_while_woken())
def test_events_are_logged_in_time_order(config):
    times = [event.time_ns for event in run(config).events]
    assert times == sorted(times)


@settings(max_examples=300 * SCALE, deadline=None)
@given(_config())
@example(_flat_while_woken())
def test_a_serialized_config_runs_as_the_config(config):
    """The scenario format carries every fact a run reads: the config parsed
    back from its JSON gives the same report."""
    report = run(config)
    again = run(parse_scenario_text(scenario_to_json(config)))
    assert again.events == report.events
    assert again.failures == report.failures
    assert again.nodes == report.nodes


@settings(max_examples=200 * SCALE, deadline=None)
@given(_config())
@example(_flat_while_woken())
@example(_one_ns_out_of_float_order())
def test_the_run_log_acts_as_the_list_it_replaces(config):
    """The report's events and failures index, slice, iterate, compare
    and print as the list of their records, and the events CSV holds
    those records."""
    report = run(config)
    for log in (report.events, report.failures):
        records = [log[i] for i in range(len(log))]
        assert list(log) == records
        assert [log[-i] for i in range(1, len(log) + 1)] == records[::-1]
        for cut in (slice(None), slice(1, -1), slice(-3, None), slice(None, None, -2),
                    slice(2, None, 3), slice(4, 1)):
            assert log[cut] == records[cut]
        assert log == records and records == log
        # nor, as a list, to the tuple of its records or to a number
        assert not log == tuple(records) and not log == 5
        assert repr(log) == repr(records)
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "events.csv")
        write_events_csv(path, report)
        with open(path, "rb") as fh:
            written = fh.read()
    rows = "".join(f"{e.time_ns / 1e9:.9f},{e.actor},{e.kind},{e.detail}\n" for e in report.events)
    assert written == ("time_s,actor,kind,detail\n" + rows).encode()


# ---------------------------------------------------------------------------
# simulated lifetime against the closed form

_VALUES = st.one_of(
    st.sampled_from([5e-324, 1e-9, 0.015, 0.1234567896, 1.0, 950.0, 1e300]),
    st.floats(min_value=5e-324, max_value=sys.float_info.max),
)


@st.composite
def _lifetime_case(draw):
    """A technology, a valid profile, an on-demand rate up to one burst per
    burst length, and a horizon short enough for at most 1000 requests."""
    tech = draw(st.sampled_from(TECHNOLOGIES))
    profile = DEFAULT_ENERGY[tech]
    if draw(st.booleans()):
        capacity, a, b, burst = (draw(_VALUES) for _ in range(4))
        assume(a != b)
        profile = EnergyProfile(capacity, max(a, b), min(a, b), burst)
    full = 3600.0 / profile.active_duration_s
    rate = draw(st.one_of(st.sampled_from([0.0, 1.0, full]), st.floats(0.0, full)))
    hours = draw(st.floats(1e-12, 10.0))
    if rate > 0.0:
        hours = min(hours, 1000.0 / rate)
    return tech, profile, rate, hours


def _lifetime_grid(rate, hours):
    """The run's request instants in whole ns, as simulate_lifetime
    documents them: k * interval before the horizon, the interval being
    3600/rate s in whole ns, at least 1 ns and at most the horizon."""
    if rate == 0.0:
        return []
    horizon = _ns(hours * 3600)
    interval = min(max(_ns(3600.0 / rate), 1), horizon)
    return [k * interval for k in range(-(-horizon // interval))]


@settings(max_examples=200 * SCALE, deadline=None)
@given(_lifetime_case())
@example(("acoustic", DEFAULT_ENERGY["acoustic"], 1200.0, 0.8))
@example(("optical", EnergyProfile(0.5, 3.6, 0.083, 1.0), 1200.0, 0.8))  # flat at ~0.4 h
@example(("optical", DEFAULT_ENERGY["optical"], 3600.0, 0.25))
@example(("mi", DEFAULT_ENERGY["mi"], 0.0, 10.0))
# bursts of 123456789.6 ns: separately rounded request instants would put
# some requests 1 ns less than a burst apart
@example(("acoustic", EnergyProfile(950.0, 0.5, 0.015, 0.1234567896), 3600 / 0.1234567896, 0.05))
# no request inside a 3.6 ns horizon, though the closed form's average
# current is mostly active current
@example(("acoustic", EnergyProfile(1.0, 2.195176211877374e214, 2.008446576016543e-113, 5e-324),
          1.0, 1e-12))
def test_simulated_lifetime_matches_the_closed_form(case):
    tech, profile, rate, hours = case
    node = make_node(tech, energy=profile)
    try:
        policy = WakePolicy.on_demand(rate)
        expected = lifetime_hours(profile, policy)
        simulated = simulate_lifetime(node, rate, hours)
    except (ConfigError, DomainError, PolicyError):  # test_sim.py tests which inputs raise
        assume(False)
    a, s, burst = profile.active_current_ma, profile.sleep_current_ma, profile.active_duration_s
    grid = _lifetime_grid(rate, hours)
    count = len(grid)
    # a request less than a burst after the previous one can find the node
    # still active, and is then ignored
    burst_ns = _ns(burst)
    close = sum(later - earlier < burst_ns for earlier, later in zip(grid, grid[1:]))
    # Active seconds the run may differ by from rate * horizon * burst: the
    # whole-request count and the truncated last burst (one burst each),
    # requests still in flight at the horizon, ignored requests, and the
    # nanosecond rounding of each burst.
    latency = 10.0 / LIGHT_SPEED_M_S + propagation_delay(node.link_params, 10.0) + 1e-6
    active_s = burst * (2 + close + rate * latency / 3600.0) + count * 1e-9
    # As charge (mAh), plus the absolute error of a sum of a few rounded
    # charges, which dominates when they are subnormal; as hours at the
    # average current, plus the horizon and a depletion instant rounded to
    # whole nanoseconds.
    charge = (a - s) * active_s / 3600.0 + 1e-322
    bound = charge / average_current(profile, policy) + 2e-9 / 3600.0
    assert abs(simulated - expected) <= bound * max(1.0, simulated / hours) + 1e-9 * expected


@settings(max_examples=200 * SCALE, deadline=None)
@given(_lifetime_case())
@example(("acoustic", DEFAULT_ENERGY["acoustic"], 1200.0, 0.8))
@example(("optical", EnergyProfile(0.5, 3.6, 0.083, 1.0), 1200.0, 0.8))  # flat at ~0.4 h
@example(("acoustic", EnergyProfile(950.0, 0.5, 0.015, 0.1234567896), 3600 / 0.1234567896, 0.05))
def test_simulated_lifetime_is_the_run_of_its_config(case):
    """simulate_lifetime gives, bit for bit, the lifetime of ``run`` on the
    config it documents (a buoy above the node, the UAV 10 m over it, one
    WakeRequest per grid instant), on grids below 2**50 ns, where every
    instant survives its round trip through float seconds."""
    tech, profile, rate, hours = case
    node = make_node(tech, energy=profile)
    try:
        simulated = simulate_lifetime(node, rate, hours)
    except (ConfigError, DomainError, PolicyError):
        assume(False)
    grid = _lifetime_grid(rate, hours)
    assume(not grid or grid[-1] < 2**50)
    p = node.position
    report = run(SimConfig(
        uav=Uav(Position3D(p.x, p.y, -10.0), rf_range_m=100.0),
        buoys=[Buoy(Position3D(p.x, p.y, 0.0))],
        nodes=[node],
        wake_requests=[WakeRequest(ns / NS, node.address) for ns in grid],
        horizon_s=hours * 3600,
    ))
    nrep = report.nodes[node.address]
    if nrep.depleted:
        assert simulated == nrep.depleted_at_s / 3600.0
    else:
        assert simulated == hours * profile.battery_capacity_mah / nrep.charge_consumed_mah


# ---------------------------------------------------------------------------
# records over the full numeric ranges

_ANY_NUMBER = st.one_of(st.floats(), st.integers(-10**400, 10**400))  # NaN, +-inf too
# What a caller may pass where a number belongs: a number, or a short
# string, None, a list or a bool (an int, but not a number a field takes).
_ANY_VALUE = st.one_of(_ANY_NUMBER, st.text(max_size=3), st.none(), st.just([]), st.booleans())


@st.composite
def _record_fields(draw):
    """The field values of a UAV, buoys, nodes and requests, unbuilt, so
    that the test sees what each constructor raises.  Each number is any
    value (any float or int up to +-10**400, or a string, None, a list or a
    bool) at a drawn rate (from none to all), else one of a few values a
    valid record holds.  At the same rate a position is a bare tuple and a
    node's energy a dict instead of a profile."""
    wild_percent = draw(st.sampled_from([0, 3, 10, 30, 100]))

    def wild():
        return draw(st.integers(0, 99)) < wild_percent

    def number(*plausible):
        return draw(_ANY_VALUE) if wild() else draw(st.sampled_from(plausible))

    def position(*xyz):  # (whether bare, the coordinates)
        return wild(), xyz

    uav = position(number(0.0, 20.0), number(0.0), number(-10.0)), number(50.0, 300.0)
    buoys = [
        (position(number(0.0, 40.0), number(0.0), number(0.0, -0.0)),
         tuple(draw(st.permutations(TECHNOLOGIES))[:draw(st.integers(0, 3))]),
         number(-100.0))
        for _ in range(draw(st.integers(1, 2)))
    ]
    nodes = [
        (number(0, 1, 2, 65535), draw(st.sampled_from(TECHNOLOGIES)),
         position(number(0.0, 20.0), number(0.0), number(10.0, 50.0)),
         None if draw(st.booleans()) else number(-120.0, -20.0),
         {"battery_capacity_mah": 950.0} if wild() else None)
        for _ in range(draw(st.integers(1, 3)))
    ]
    requests = [
        (number(0.0, 0.5, 1.0), number(0, 1, 2, 999)) for _ in range(draw(st.integers(0, 3)))
    ]
    return uav, buoys, nodes, requests


def _position(drawn):
    bare, xyz = drawn
    return xyz if bare else Position3D(*xyz)


def _records(drawn):
    """The config fields of ``_record_fields`` values: what a record's
    constructor raises, if one does."""
    (uav_position, rf_range_m), buoys, nodes, requests = drawn
    return dict(
        uav=Uav(_position(uav_position), rf_range_m),
        buoys=[Buoy(_position(position), techs, rf_sensitivity_dbm=rf_dbm)
               for position, techs, rf_dbm in buoys],
        nodes=[Node(address, _position(position), tech, sensitivity_dbm=dbm, energy=energy)
               for address, tech, position, dbm, energy in nodes],
        wake_requests=[WakeRequest(time_s, address) for time_s, address in requests],
        horizon_s=5.0,
    )


def _records_config(drawn):
    """The config of ``_record_fields`` values: what a constructor raises, if one does."""
    return SimConfig(**_records(drawn))


# The ConfigError messages of the rules that span records and that these
# draws can break (the horizon and the energy profiles are fixed).
_CROSS_RECORD = ("duplicate address", "reference distance")


@settings(max_examples=300 * SCALE, deadline=None)
@given(_record_fields())
def test_records_are_valid_or_raise_a_typed_error(drawn):
    """Each record checks its own fields: its constructor raises DomainError
    or ConfigError, or the record is valid, and a config of valid records
    builds and runs or breaks only a rule that spans records."""
    try:
        records = _records(drawn)
    except (DomainError, ConfigError):
        return
    try:
        run(SimConfig(**records))
    except ConfigError as exc:
        assert any(rule in str(exc) for rule in _CROSS_RECORD), exc


def _one_mi_node(link=None, buoy=None, horizon_s=5.0):
    """An MI node under a buoy, woken at t = 0; its link and the buoy take
    the given fields."""
    return SimConfig(
        uav=Uav(Position3D(0.0, 0.0, -10.0), rf_range_m=100.0),
        buoys=[Buoy(Position3D(0.0, 0.0, 0.0), **(buoy or {}))],
        nodes=[make_node("mi", link_params=make_link("mi", **(link or {})))],
        wake_requests=[WakeRequest(0.0, 1)],
        horizon_s=horizon_s,
    )


def _two_media():
    """Two acoustic nodes whose links run in different water."""
    return SimConfig(
        uav=Uav(Position3D(0.0, 0.0, -10.0), rf_range_m=100.0),
        buoys=[Buoy(Position3D(0.0, 0.0, 0.0))],
        nodes=[make_node("acoustic", address, link_params=make_link("acoustic", **medium))
               for address, medium in ((1, {}), (2, {"density_kg_m3": 1025.0}))],
        wake_requests=[WakeRequest(0.0, 1)],
        horizon_s=5.0,
    )


# Each case builds its config when run: a record that refuses a field raises there.
@settings(max_examples=300 * SCALE, deadline=None)
@given(_record_fields().map(lambda drawn: partial(_records_config, drawn)))
@example(partial(_one_mi_node, link={"turns_tx": True}))
@example(partial(_one_mi_node, link={"turns_tx": 2.5}))
@example(partial(_one_mi_node, buoy={"rf_wakeup_enabled": "no"}))
@example(partial(_one_mi_node, buoy={"transmitters": ["mi"]}))
@example(partial(_one_mi_node, horizon_s=True))
@example(_two_media)
def test_a_config_that_runs_round_trips(build):
    """Records and the scenario format hold one type rule: every config
    that builds (its records and the rules that span them) and whose links
    share one medium serializes and parses back to an equal config.  The
    format has one global medium, so links in two media are refused when
    serialized."""
    try:
        config = build()
    except (DomainError, ConfigError):
        return
    media = {v for node in config.nodes for v in vars(node.link_params).values()
             if isinstance(v, Medium)}
    if len(media) > 1:
        with pytest.raises(ValidationError, match="single global medium"):
            scenario_to_json(config)
        return
    assert parse_scenario_text(scenario_to_json(config)) == config


@settings(max_examples=200 * SCALE, deadline=None)
@given(_lifetime_case())
def test_duty_cycle_and_on_demand_give_one_lifetime(case):
    """The lifetime model reads a policy's rate, not its kind: at one rate,
    duty cycling and on-demand wake-up last equally long (the paper's
    comparison is of their rates, in ``active_charge_ratio``)."""
    _, profile, rate, _ = case
    try:
        on_demand = lifetime_hours(profile, WakePolicy.on_demand(rate))
    except (DomainError, PolicyError):
        assume(False)
    assert lifetime_hours(profile, WakePolicy.duty_cycle(rate)) == on_demand
