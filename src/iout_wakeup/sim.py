"""Deterministic discrete-event simulation of the two-stage wake-up protocol.

Stage one: the UAV sends an RF request toward the buoys; the air hop is a
success disk (inside ``rf_range`` the request arrives after distance/c,
outside it is dropped with a failure record).  Stage two: an in-range
buoy emits an addressed wake-up signal using the target node's
technology; every sleeping node of that technology receives it after the
propagation delay, compares the received power against its sensitivity
and the address against its own, and only a matched, in-range node turns
ACTIVE for its burst duration before falling back to SLEEP.

Determinism: event times are integer nanoseconds and the queue is totally
ordered by (time, event-kind priority, actor id, insertion sequence).
State transitions at a timestamp are processed before signal arrivals at
the same timestamp, so back-to-back wake schedules keep a node
continuously active.  Requests come from their sorted stream, not the
queue, and a request runs after every queued entry at its ns: arrivals
precede fresh emissions.  A broadcast is one queue entry with one
insertion sequence: its link table is sorted by (delay, address), and
the entry handles the arrivals in that order, each at the point where a
queue entry of its own would be popped.  A node found depleted while
settling logs the depletion in its place in time order.  The engine is
seedless; identical configs produce identical reports.

The run logs each event as two ints, a time and a code (see ``RunLog``),
and a failure as the outcome of its event: the records, failures too,
are built from the events when the report is read.

Buoy energy is not metered (surface nodes harvest); only node-side charge
is accounted, exactly: consumed = I_active*t_active/3600 + I_sleep*t_sleep/3600.
"""

import itertools
import math
import sys
from array import array
from bisect import bisect_right
from collections.abc import Sequence
from dataclasses import dataclass, fields
from functools import cached_property
from heapq import heappop, heappush
from operator import eq, itemgetter

from . import acoustic, mi, optical
from .core import (
    ACOUSTIC,
    LIGHT_SPEED_M_S,
    MAX_POINTS,
    MI,
    OPTICAL,
    TECHNOLOGIES,
    Medium,
    Position3D,
    by_technology,
    check_fields,
    check_names,
    is_number,
    propagation_delay,
    shown,
)
from .energy import DEFAULT_ENERGY, EnergyProfile, WakePolicy, lifetime_hours
from .errors import ConfigError, DomainError

SLEEP = "sleep"
ACTIVE = "active"

OUT_OF_RANGE = "out_of_range"
ADDRESS_MISMATCH = "address_mismatch"
DEPLETED = "depleted"

MAX_ADDRESS = 0xFFFF

_NS = 1_000_000_000
_FLOAT_MAX = sys.float_info.max
# Queue priorities: sleep transitions, then arrivals (buoy RF, node WuS).
# A queue entry is (time, priority, key, sequence, *payload): its priority
# also names its kind.  The queue holds at most one entry per broadcast,
# keyed by the broadcast's next arrival.
_PRIO_SLEEP, _PRIO_RF, _PRIO_WUS = 0, 1, 2
# A logged code is ``key << _TARGET_BITS | target``: the index of its entry
# and the request target its detail takes, or 0.  Every address fits.
_TARGET_BITS = 16
# A log's columns hold unsigned 64-bit ints: "L" where a C long has 8 bytes,
# as CPython appends it about twice as fast as "Q" and four times as "q".
_U64 = "L" if array("L").itemsize == 8 else "Q"

# The link law of each technology: its params class computes received
# power (``rx_dbm``) and states the shortest distance the law holds at, the
# signal's wave speed and the reference receiver sensitivity.
LINK_TYPES = {
    ACOUSTIC: acoustic.AcousticLinkParams,
    OPTICAL: optical.OpticalLinkParams,
    MI: mi.MiLinkParams,
}


def _link_entry(cls):
    """(the class, name -> type of each value ``make_link`` takes for it,
    the name of its ``Medium``-typed field or None).  The medium's own
    fields take the place of a ``Medium``-typed one."""
    names = {g.name: g.type for f in fields(cls)
             for g in (fields(Medium) if f.type is Medium else (f,))}
    if "extinction_per_m" in names:
        names["water_type"] = optical.WaterType
    return cls, names, next((f.name for f in fields(cls) if f.type is Medium), None)


_LINKS = {t: _link_entry(cls) for t, cls in LINK_TYPES.items()}
_MEDIUM_NAMES = tuple(f.name for f in fields(Medium))


def link_fields(technology):
    """Name -> type of each value ``make_link`` takes for a technology: the
    fields of its params class, the medium's for a ``Medium``-typed one,
    and ``water_type`` where the class has ``extinction_per_m``."""
    return dict(by_technology(_LINKS, technology)[1])


def make_link(technology, **given):
    """Link params of a technology from the names ``link_fields`` lists:
    the medium's fields build its ``Medium``, and ``water_type`` resolves
    ``extinction_per_m``.  Any other name is a DomainError, the first
    given."""
    cls, names, medium = by_technology(_LINKS, technology)
    check_names(given, names, f"{technology} link")
    if "water_type" in given:
        water_type = given.pop("water_type")
        if "extinction_per_m" in given:
            raise DomainError("give water_type or extinction_per_m, not both")
        if water_type is None:  # refused as every field refuses an explicit None
            raise DomainError("water_type must be a water type: None")
        given["extinction_per_m"] = optical.extinction_coefficient(water_type)
    water = {name: given.pop(name) for name in _MEDIUM_NAMES if name in given}
    if water:  # only a link that runs in a medium takes these names
        given[medium] = Medium(**water)
    return cls(**given)


def _to_ns(seconds):
    """Whole nanoseconds; inf past the float range (an int count too),
    beyond any horizon."""
    ns = seconds * _NS
    return round(ns) if ns <= _FLOAT_MAX else math.inf


def seconds_text(ns):
    """Whole ns as seconds with nine decimals, exact at any size (``inf``
    past the float range)."""
    if ns == math.inf:
        return "inf"
    # %-formatting of the int pair costs what a float's .9f does; an
    # f-string of the two parts costs a third more
    return "%d.%09d" % divmod(ns, _NS)


def _check_address(address, what):
    if not 0 <= address <= MAX_ADDRESS:
        raise ConfigError(f"{what} out of 16-bit range: {address}")


@dataclass(frozen=True)
class Node:
    """Submerged sensor node; every node starts asleep at t = 0."""

    address: int
    position: Position3D
    technology: str
    link_params: object = None
    sensitivity_dbm: float = None
    energy: EnergyProfile = None  # the battery starts full

    def __post_init__(self):
        link_type = by_technology(LINK_TYPES, self.technology)
        if self.link_params is None:
            object.__setattr__(self, "link_params", link_type())
        elif not isinstance(self.link_params, link_type):
            raise ConfigError(f"link params do not match technology {self.technology}")
        if self.sensitivity_dbm is None:
            object.__setattr__(self, "sensitivity_dbm", link_type.default_sensitivity_dbm)
        if self.energy is None:
            object.__setattr__(self, "energy", DEFAULT_ENERGY[self.technology])
        # an exact int address, as in a scenario: 1, 1.0 and True are one dict key
        check_fields(self)
        _check_address(self.address, "address")
        if self.position.z <= 0.0:
            raise ConfigError(f"node above surface: z={self.position.z}")


@dataclass(frozen=True)
class Buoy:
    """Surface relay at z = 0; ``transmitters`` lists the equipped
    wake-up technologies, each at most once (a list is stored as a tuple)."""

    position: Position3D
    transmitters: tuple = TECHNOLOGIES
    rf_wakeup_enabled: bool = True
    rf_sensitivity_dbm: float = -100.0

    def __post_init__(self):
        check_fields(self)
        if self.position.z != 0.0:
            raise ConfigError(f"buoy not at surface: z={self.position.z}")
        if not isinstance(self.transmitters, (tuple, list)):
            raise ConfigError(
                f"transmitters must be a tuple of technologies: {shown(self.transmitters)}"
            )
        object.__setattr__(self, "transmitters", tuple(self.transmitters))
        for tech in self.transmitters:
            if tech not in TECHNOLOGIES:
                raise ConfigError(f"unknown transmitter technology: {shown(tech, str)}")
        # a repeated technology would emit every broadcast twice
        if len(set(self.transmitters)) < len(self.transmitters):
            raise ConfigError(f"repeated transmitter technology: {self.transmitters}")


@dataclass(frozen=True)
class Uav:
    """Airborne requester at z < 0; buoys within ``rf_range_m`` hear it."""

    position: Position3D
    rf_range_m: float = 1000.0

    def __post_init__(self):
        check_fields(self)
        if self.position.z >= 0.0:
            raise ConfigError(f"uav not above surface: z={self.position.z}")
        if not self.rf_range_m > 0.0:
            raise ConfigError(f"rf range must be positive: {self.rf_range_m}")


@dataclass(frozen=True)
class WakeRequest:
    """A time past the float range of whole ns (1e300 s, say) never runs."""

    time_s: float
    target_address: int

    def __post_init__(self):
        check_fields(self)
        if not self.time_s >= 0.0:
            raise ConfigError(f"wake request before t=0: {self.time_s}")
        _check_address(self.target_address, "request address")


@dataclass(frozen=True)
class SimConfig:
    """The records of a run and its horizon.  Each record checks its own
    fields; the config checks the rules that span records when it is
    built, stores each list as a tuple and the horizon as a float.  A
    horizon is a number a float field takes whose whole nanosecond count
    is positive and finite."""

    uav: Uav
    buoys: tuple
    nodes: tuple
    wake_requests: tuple = ()
    horizon_s: float = 3600.0

    def __post_init__(self):
        # a value the float rule refuses becomes NaN, whose ns count is inf
        horizon_s = float(self.horizon_s) if is_number(self.horizon_s) else math.nan
        horizon_ns = _to_ns(horizon_s)
        if not 0 < horizon_ns < math.inf:
            raise ConfigError(
                f"horizon must be positive and finite in whole ns: {shown(self.horizon_s)}"
            )
        object.__setattr__(self, "horizon_s", horizon_s)
        if not isinstance(self.uav, Uav):
            raise ConfigError(f"uav must be a Uav: {shown(self.uav)}")
        for name, record in (("buoys", Buoy), ("nodes", Node), ("wake_requests", WakeRequest)):
            items = getattr(self, name)
            if not isinstance(items, (list, tuple)):
                raise ConfigError(f"{name} must be a list: {shown(items)}")
            for i, item in enumerate(items):
                if not isinstance(item, record):
                    raise ConfigError(f"{name}[{i}] must be a {record.__name__}: {shown(item)}")
            object.__setattr__(self, name, tuple(items))
        if not self.buoys:
            raise ConfigError("config needs at least one buoy")
        seen = set()
        for node in self.nodes:
            if node.address in seen:
                raise ConfigError(f"duplicate address: {node.address}")
            seen.add(node.address)
            # the largest charge a run computes, in mA*s
            if not node.energy.active_current_ma * (horizon_ns / _NS) <= _FLOAT_MAX:
                raise ConfigError(
                    f"node {node.address}: {node.energy.active_current_ma} mA over the "
                    f"{self.horizon_s} s horizon is a charge beyond the float range"
                )
            d_min = node.link_params.min_distance_m
            for i, buoy in enumerate(self.buoys):
                if buoy.position.distance_to(node.position) < max(d_min, 1e-9):
                    raise ConfigError(
                        f"node {node.address} closer than the link model's reference "
                        f"distance to buoy {i}"
                    )


# The run's records are built from its log each time they are read, so
# editing one does not edit the report.  They are slotted, not frozen: a
# frozen dataclass sets each field through object.__setattr__, several
# times slower to build.  They are not hashable.
@dataclass(slots=True)
class SimEvent:
    time_ns: int
    actor: str
    kind: str
    detail: str

    @property
    def time_s(self):
        return self.time_ns / _NS


@dataclass(slots=True)
class FailureRecord:
    time_ns: int
    reason: str
    actor: str
    detail: str


class RunLog(Sequence):
    """A run's events or failures: a read-only sequence of ``record``s,
    held as two columns of ints, a time and a code per record.

    A code names an entry of the log's table and, if the entry's detail
    takes one at its ``{}``, the target of the request that logged it.
    An entry holds a record's fields but its time, in field order; an
    event's may go on with the reason and detail of a failure it meets.
    A run makes its entries before the loop (per link-table row and
    outcome, node, buoy and technology, and for the UAV), so the table
    grows with the links, not the arrivals.  A record is built on access;
    a log compares equal to a list of the same records, or to another
    log, and its repr is that of the list.
    """

    __slots__ = ("record", "entries", "times", "codes")

    def __init__(self, record, horizon_ns):
        self.record = record
        self.entries = []
        # No record comes after the horizon; past 64 bits, times go in a list.
        self.times = array(_U64) if horizon_ns < 2**64 else []
        self.codes = array(_U64)

    def entry(self, *fields):
        """Add an entry to the table; returns its code without a target."""
        self.entries.append(fields)
        return (len(self.entries) - 1) << _TARGET_BITS

    def insort(self, time_ns, code):
        """Add a record after every record up to its time, as a stable
        sort would put it."""
        i = bisect_right(self.times, time_ns)
        self.times.insert(i, time_ns)
        self.codes.insert(i, code)

    def lines(self, time_text, entry_text):
        """Each record as ``time_text(time_ns)`` followed by
        ``entry_text(*entry)`` with the record's target in place of the
        ``{}`` its detail may hold.  Each entry is rendered once, and each
        time once for a run of equal times."""
        parts = []
        for fields in self.entries:
            head, target, tail = entry_text(*fields).partition("{}")
            parts.append((head, tail if target else None))
        last_ns = None
        for time_ns, code in zip(self.times, self.codes):
            if time_ns != last_ns:
                last_ns, stamp = time_ns, time_text(time_ns)
            head, tail = parts[code >> _TARGET_BITS]
            yield stamp + head if tail is None else f"{stamp}{head}{code & MAX_ADDRESS}{tail}"

    def _record(self, time_ns, code):
        first, second, detail = self.entries[code >> _TARGET_BITS][:3]
        return self.record(time_ns, first, second, detail.format(code & MAX_ADDRESS))

    def __len__(self):
        return len(self.codes)

    def __getitem__(self, i):
        if isinstance(i, slice):
            return [self[j] for j in range(*i.indices(len(self)))]
        return self._record(self.times[i], self.codes[i])

    def __iter__(self):
        return map(self._record, self.times, self.codes)

    def __eq__(self, other):
        if not isinstance(other, (RunLog, list)):
            return NotImplemented
        return len(self) == len(other) and all(map(eq, self, other))

    def __repr__(self):
        return repr(list(self))


@dataclass
class NodeReport:
    address: int
    wakes: int
    wake_latencies_s: list
    charge_consumed_mah: float
    remaining_charge_mah: float
    failures: int
    depleted: bool
    depleted_at_s: float = None
    final_state: str = SLEEP

    @property
    def mean_latency_s(self):
        if not self.wake_latencies_s:
            return 0.0
        return sum(self.wake_latencies_s) / len(self.wake_latencies_s)


@dataclass
class SimReport:
    horizon_s: float
    events: RunLog  # of SimEvent
    nodes: dict  # address -> NodeReport

    @cached_property
    def failures(self):
        """A RunLog of a FailureRecord per event whose entry names one, in
        event order, with the event's time and target, built when first
        read.  Its times are held as the events' are."""
        failures = RunLog(FailureRecord, _to_ns(self.horizon_s))
        keys = [failures.entry(entry[3], entry[0], entry[4]) if len(entry) == 5 else None
                for entry in self.events.entries]
        log_time, log_code = failures.times.append, failures.codes.append
        for time_ns, code in zip(self.events.times, self.events.codes):
            failure = keys[code >> _TARGET_BITS]
            if failure is not None:
                log_time(time_ns)
                log_code(failure | code & MAX_ADDRESS)
        return failures


class _NodeRuntime:
    """Mutable per-node bookkeeping while the event loop runs."""

    def __init__(self, node: Node, horizon_ns, events):
        self.node = node
        self.actor = actor = f"node{node.address}"
        # The node's log codes: an arrival that fails as it finds it flat or
        # names another target, that is ignored while active or from a
        # request that woke it already, its sleep and depletion.
        self.depleted = events.entry(actor, "wus_arrival", "depleted", DEPLETED, "target={}")
        self.mismatch = events.entry(actor, "wus_arrival", "address_mismatch target={}",
                                     ADDRESS_MISMATCH, f"target={{}} local={node.address}")
        self.ignored = events.entry(actor, "wus_arrival", "ignored_active")
        self.duplicate = events.entry(actor, "wus_arrival", "duplicate_request")
        self.asleep = events.entry(actor, "node_sleep", "")
        self.depletion = events.entry(actor, "node_depleted", "")
        self.burst_ns = _to_ns(node.energy.active_duration_s)
        self.active_ma = node.energy.active_current_ma
        self.sleep_ma = node.energy.sleep_current_ma
        self.state = SLEEP
        self.initial_mah = node.energy.battery_capacity_mah
        self.last_ns = 0
        self.active_ns = 0
        self.sleep_ns = 0
        self.depleted_ns = None
        self.latencies_s = []
        self.failures = 0
        self.woken_by = None  # the token of the request that last woke the node
        # Whether the battery can run flat before the horizon.  Each charge
        # settle() compares (active, sleep, the new interval) is at most X,
        # the charge of a node active throughout, as float rounding is
        # monotone: so above 4X the budget always exceeds the interval, in
        # every float range.  A node that cannot run flat is settled only at
        # its state changes and at the horizon: the integer totals, and so
        # the report, are those of settling at every arrival.
        always_active_mah = self.active_ma * (horizon_ns / _NS) / 3600.0
        self.can_deplete = not self.initial_mah > 4.0 * always_active_mah

    def consumed_mah(self):
        return (
            self.active_ma * (self.active_ns / _NS) / 3600.0
            + self.sleep_ma * (self.sleep_ns / _NS) / 3600.0
        )

    def settle(self, now_ns, events):
        """Charge the interval since the last settlement; split it at the
        depletion instant if the battery runs out inside it.  Returns
        whether the battery is flat."""
        delta = now_ns - self.last_ns
        if delta <= 0 or self.depleted_ns is not None:
            self.last_ns = max(self.last_ns, now_ns)
            return self.depleted_ns is not None
        active = self.state == ACTIVE
        current = self.active_ma if active else self.sleep_ma
        budget_mah = self.initial_mah - self.consumed_mah()
        if current * (delta / _NS) / 3600.0 >= budget_mah:
            # the battery runs out inside the interval: credit what it lived
            split = budget_mah * 3600.0 * _NS / current
            if split == math.inf:  # the product overflowed, the instant may not
                split = budget_mah / current * 3600.0 * _NS
            delta = int(min(delta, split))
            self.depleted_ns = self.last_ns + delta
            # found while settling, after later events may have been logged
            events.insort(self.depleted_ns, self.depletion)
        if active:
            self.active_ns += delta
        else:
            self.sleep_ns += delta
        self.last_ns = now_ns
        return self.depleted_ns is not None


def _link_table(buoy, hop_ns, runtimes, technology, events):
    """(delay_ns, address, runtime, miss, wake) from a buoy, ``hop_ns``
    after the UAV, to each node of a technology, sorted by (delay_ns,
    address): the order the queue pops one broadcast's arrivals.  Received
    power and sensitivity are fixed per (buoy, node), so whether the node
    hears the buoy is decided here: ``miss`` is None if it does, else the
    code of the failing ``wus_arrival`` that every arrival on that link
    logs.  So is the wake latency, the UAV hop plus the link delay:
    ``wake`` is (latency_s, the ``node_wake`` code) if the node hears the
    buoy, else None."""
    table = []
    for nrt in runtimes.values():
        node = nrt.node
        if node.technology == technology:
            dist = buoy.position.distance_to(node.position)
            delay_ns = _to_ns(propagation_delay(node.link_params, dist))
            rx_dbm = node.link_params.rx_dbm(dist)
            actor = nrt.actor
            miss = wake = None
            if rx_dbm < node.sensitivity_dbm:
                miss = events.entry(actor, "wus_arrival", f"below_sensitivity rx_dbm={rx_dbm:.3f}",
                                    OUT_OF_RANGE, f"rx {rx_dbm:.3f} dBm below sensitivity "
                                    f"{node.sensitivity_dbm:.3f} dBm")
            else:
                latency_ns = hop_ns + delay_ns
                wake = (latency_ns / _NS, events.entry(actor, "node_wake",
                                                       f"latency_s={seconds_text(latency_ns)}"))
            table.append((delay_ns, node.address, nrt, miss, wake))
    table.sort(key=itemgetter(0, 1))
    return table


def run(config: SimConfig) -> SimReport:
    """Run the event loop to the horizon and assemble the report.

    Protocol outcomes (missed wake-ups, mismatches, depleted targets) are
    report records, never exceptions.
    """
    # Sorted stably by whole ns, not by time_s: two times can round to
    # one ns, and config order must then decide.  A request is its own
    # token, so one listed twice is one request.
    ordered = sorted(config.wake_requests, key=lambda r: _to_ns(r.time_s))
    return _run(config, ((_to_ns(r.time_s), r.target_address, r) for r in ordered))


def _run(config: SimConfig, requests) -> SimReport:
    """The run of a config on ``requests``, an iterable of
    (whole ns, target, token) in run order.  Relays of requests with one
    token (compared with ``is``) wake a node once."""
    horizon_ns = _to_ns(config.horizon_s)
    events = RunLog(SimEvent, horizon_ns)
    log_time, log_code = events.times.append, events.codes.append
    runtimes = {node.address: _NodeRuntime(node, horizon_ns, events) for node in config.nodes}
    heap = []
    seq = itertools.count()
    # the next request, made once every queued entry up to its ns has run
    requests = iter(requests)
    due, due_target, due_req = next(requests, (math.inf, None, None))

    # The RF hop of every buoy that hears the UAV: its index, delay and a
    # route per target technology, which a request picks.  A route is the
    # ``rf_arrival`` code and the (``wus_emit`` code, link table) of each
    # broadcast: the target's transmitter, or none (with a failing arrival)
    # if the buoy lacks it.  An address no node has takes the route keyed
    # None, on every transmitter; the nodes' address filters sort it out.
    hops = []
    for bidx, buoy in enumerate(config.buoys):
        dist = config.uav.position.distance_to(buoy.position)
        if buoy.rf_wakeup_enabled and dist <= config.uav.rf_range_m:
            hop_ns = _to_ns(dist / LIGHT_SPEED_M_S)
            actor = f"buoy{bidx}"
            arrived = events.entry(actor, "rf_arrival", "target={}")
            broadcasts = {
                tech: (events.entry(actor, "wus_emit", f"tech={tech} target={{}}"),
                       _link_table(buoy, hop_ns, runtimes, tech, events))
                for tech in buoy.transmitters
            }
            routes = {
                tech: (arrived, (broadcasts[tech],)) if tech in broadcasts
                else (events.entry(actor, "rf_arrival", "target={}", OUT_OF_RANGE,
                                   f"no {tech} transmitter for target {{}}"), ())
                for tech in TECHNOLOGIES
            }
            routes[None] = (arrived, tuple(broadcasts.values()))
            hops.append((bidx, hop_ns, routes))
    # a request no buoy hears fails as it is made
    no_buoy = () if hops else (OUT_OF_RANGE, "no buoy within rf range")
    requested = events.entry("uav", "wake_request", "target={}", *no_buoy)

    while True:
        # every queued kind sorts before a request at its ns
        if heap and heap[0][0] <= due:
            entry = heappop(heap)
            if entry[0] > horizon_ns:  # and so is the request: nothing later (or inf) runs
                break
        elif due <= horizon_ns:
            log_time(due)
            log_code(requested | due_target)
            nrt = runtimes.get(due_target)
            tech = None if nrt is None else nrt.node.technology
            for bidx, delay_ns, routes in hops:
                heappush(heap, (due + delay_ns, _PRIO_RF, bidx, next(seq), routes[tech],
                                due_req, due_target))
            due, due_target, due_req = next(requests, (math.inf, None, None))
            continue
        else:
            break
        kind = entry[1]

        # Signal arrivals are almost every entry, so they are tested first.
        # A broadcast's entry handles its arrivals in table order while the
        # next one still sorts before the queue's head and the next request,
        # then goes back in keyed by the first one that does not.
        if kind == _PRIO_WUS:
            t, _, addr, order, i, emitted, rows, req, target = entry
            _, _, nrt, miss, wake = rows[i]
            while True:
                if nrt.can_deplete and nrt.settle(t, events):
                    code = nrt.depleted | target
                    nrt.failures += 1
                elif miss is not None:
                    code = miss
                    nrt.failures += 1
                elif target != addr:
                    code = nrt.mismatch | target
                    nrt.failures += 1
                elif nrt.state == ACTIVE:
                    # Fig-2-style interrupt targets a sleeping controller; an
                    # already-active node ignores further signals.
                    code = nrt.ignored
                elif nrt.woken_by is req:
                    # Another buoy's relay of the request that already woke the
                    # node, arriving after its burst: one request, one wake.
                    code = nrt.duplicate
                else:
                    if not nrt.can_deplete:
                        nrt.settle(t, events)
                    nrt.state = ACTIVE
                    nrt.woken_by = req
                    nrt.latencies_s.append(wake[0])
                    code = wake[1]
                    heappush(heap, (t + nrt.burst_ns, _PRIO_SLEEP, addr, next(seq), nrt))
                log_time(t)
                log_code(code)
                i += 1
                if i == len(rows):
                    break
                delay_ns, addr, nrt, miss, wake = rows[i]
                t = emitted + delay_ns
                if t > horizon_ns:  # and so is every later row
                    break
                # times first: a tuple is built only on a tie
                head_t = heap[0][0] if heap else math.inf
                if t > due or t > head_t or t == head_t and (t, _PRIO_WUS, addr, order) > heap[0]:
                    heappush(heap, (t, _PRIO_WUS, addr, order, i, emitted, rows, req, target))
                    break

        elif kind == _PRIO_SLEEP:
            t, nrt = entry[0], entry[4]
            # the node is active: its wake pushed this timer, the one way back to sleep
            if not nrt.settle(t, events):
                nrt.state = SLEEP
                log_time(t)
                log_code(nrt.asleep)

        else:  # an RF arrival
            t, _, _, _, (arrived, emits), req, target = entry
            log_time(t)
            log_code(arrived | target)
            for emitted_code, rows in emits:
                log_time(t)
                log_code(emitted_code | target)
                if rows:
                    delay_ns, addr = rows[0][:2]
                    heappush(
                        heap, (t + delay_ns, _PRIO_WUS, addr, next(seq), 0, t, rows, req, target)
                    )

    for nrt in runtimes.values():
        nrt.settle(horizon_ns, events)

    node_reports = {}
    for addr in sorted(runtimes):
        nrt = runtimes[addr]
        consumed = nrt.consumed_mah()
        remaining = nrt.initial_mah - consumed
        if remaining < 0.0:  # sub-ulp overshoot from the depletion split
            remaining = 0.0
        node_reports[addr] = NodeReport(
            address=addr,
            wakes=len(nrt.latencies_s),
            wake_latencies_s=nrt.latencies_s,
            charge_consumed_mah=consumed,
            remaining_charge_mah=remaining,
            failures=nrt.failures,
            depleted=nrt.depleted_ns is not None,
            depleted_at_s=None if nrt.depleted_ns is None else nrt.depleted_ns / _NS,
            final_state=nrt.state,
        )
    return SimReport(horizon_s=config.horizon_s, events=events, nodes=node_reports)


def make_node(technology, address=1, depth_m=10.0, **kwargs):
    """Node at (0, 0, depth) with the reference defaults of a technology."""
    return Node(
        address=address,
        position=Position3D(0.0, 0.0, depth_m),
        technology=technology,
        **kwargs,
    )


def simulate_lifetime(node: Node, wake_rate_per_hour, horizon_hours):
    """Event-driven lifetime in hours for a node woken at a constant rate.

    Places a buoy straight above the node and a UAV 10 m over the buoy,
    schedules one matched request at each exact whole-nanosecond instant
    ``k * interval`` before the horizon, the interval being 3600/rate
    seconds rounded to whole nanoseconds, and runs to the horizon.  The
    requests are streamed into the run, which holds no object per request.
    Returns the depletion time if the battery dies inside the horizon,
    otherwise extrapolates linearly from the consumed charge.
    """
    # The closed form's rules: a rate or profile lifetime_hours rejects
    # raises the same PolicyError or DomainError here.
    lifetime_hours(node.energy, WakePolicy.on_demand(wake_rate_per_hour))
    # The config holds the horizon to its rule, so each number is scaled to
    # the seconds its errors name; anything else, a bool too (True * 3600
    # would be a number), is passed on as given.
    number = isinstance(horizon_hours, (int, float)) and type(horizon_hours) is not bool
    config = SimConfig(
        uav=Uav(Position3D(node.position.x, node.position.y, -10.0), rf_range_m=100.0),
        buoys=[Buoy(Position3D(node.position.x, node.position.y, 0.0))],
        nodes=[node],
        horizon_s=horizon_hours * 3600 if number else horizon_hours,
    )
    requests = ()
    if wake_rate_per_hour > 0.0:
        # Whole-ns instants k * interval, so no two requests come closer than
        # the rate says; an interval past the horizon asks once, at t = 0.
        horizon_ns = _to_ns(config.horizon_s)
        interval_ns = min(max(_to_ns(3600.0 / wake_rate_per_hour), 1), horizon_ns)
        count = -(-horizon_ns // interval_ns)
        if count > MAX_POINTS:
            raise ConfigError(
                f"{wake_rate_per_hour} wakes/h over {horizon_hours} h "
                f"is more than {MAX_POINTS} requests"
            )
        # k is the token of the k-th request
        requests = ((k * interval_ns, node.address, k) for k in range(count))
    report = _run(config, requests)
    nrep = report.nodes[node.address]
    if nrep.depleted:
        return nrep.depleted_at_s / 3600.0
    consumed = nrep.charge_consumed_mah
    if consumed < sys.float_info.min:  # 0, or subnormal: too few significant bits
        raise DomainError(
            f"lifetime from {consumed} mAh consumed in {horizon_hours} h: the charge is "
            "below the normal float range"
        )
    hours = horizon_hours * node.energy.battery_capacity_mah / consumed
    if not hours < math.inf:  # the ratio overflowed
        raise DomainError(
            f"lifetime from {consumed} mAh consumed in {horizon_hours} h is beyond the float range"
        )
    return hours
