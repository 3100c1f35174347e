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
continuously active; arrivals precede fresh emissions.  A broadcast is one
queue entry with one insertion sequence: its link table is sorted by
(delay, address), and the entry handles the arrivals in that order, each
at the point where a queue entry of its own would be popped.  A
node found depleted while settling logs the depletion in its place in
time order.  The engine is seedless; identical configs produce identical
reports.

The run logs each event and failure as two ints, a time and a code (see
``RunLog``): the records are built when the report is read.

Buoy energy is not metered (surface nodes harvest); only node-side charge
is accounted, exactly: consumed = I_active*t_active/3600 + I_sleep*t_sleep/3600.
"""

import gc
import itertools
import math
import sys
from array import array
from bisect import bisect_right
from collections.abc import Sequence
from contextlib import contextmanager
from dataclasses import dataclass, field, fields
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
# Queue priorities: sleep transitions, then arrivals (buoy RF, node WuS),
# then fresh UAV emissions.  A queue entry is (time, priority, key,
# sequence, *payload): its priority also names its kind.  The queue holds
# at most one request, the next in (whole ns, config order): popping it
# pushes the one after, so the requests keep the order they would have
# if all were queued at t = 0.  Likewise it holds at most one entry per
# broadcast, keyed by the broadcast's next arrival.
_PRIO_SLEEP, _PRIO_RF, _PRIO_WUS, _PRIO_REQUEST = 0, 1, 2, 3
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
    the names of its ``Medium``-typed fields)."""
    names = {f.name: f.type for f in fields(cls) if f.type is not Medium}
    if "extinction_per_m" in names:
        names["water_type"] = optical.WaterType
    return cls, names, tuple(f.name for f in fields(cls) if f.type is Medium)


_LINKS = {t: _link_entry(cls) for t, cls in LINK_TYPES.items()}


def link_fields(technology):
    """Name -> type of each value ``make_link`` takes for a technology: the
    fields of its params class but a ``Medium`` one, and ``water_type``
    where the class has ``extinction_per_m``."""
    return dict(by_technology(_LINKS, technology)[1])


def make_link(technology, medium=Medium(), **given):
    """Link params of a technology from the given fields of its params class.
    ``medium`` fills a ``Medium``-typed field (links without one ignore it)
    and ``water_type`` resolves ``extinction_per_m``.  A name ``link_fields``
    does not list is a DomainError, the first given."""
    cls, names, medium_fields = by_technology(_LINKS, technology)
    check_names(given, names, f"{technology} link")
    water_type = given.pop("water_type", None)
    if water_type is not None:
        if "extinction_per_m" in given:
            raise DomainError("give water_type or extinction_per_m, not both")
        given["extinction_per_m"] = optical.extinction_coefficient(water_type)
    for name in medium_fields:
        given[name] = medium
    return cls(**given)


def _to_ns(seconds):
    """Whole nanoseconds; inf past the float range (an int count too),
    beyond any horizon."""
    ns = seconds * _NS
    return round(ns) if ns <= _FLOAT_MAX else math.inf


def _valid_horizon(horizon_s):
    """A horizon is a number a float field takes that lasts at least one
    whole nanosecond, and its nanosecond count must be finite."""
    return is_number(horizon_s) and horizon_s > 0.0 and 0 < _to_ns(horizon_s) < math.inf


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
                f"transmitters must be a tuple of technologies: {self.transmitters!r}"
            )
        object.__setattr__(self, "transmitters", tuple(self.transmitters))
        for tech in self.transmitters:
            if tech not in TECHNOLOGIES:
                raise ConfigError(f"unknown transmitter technology: {tech}")
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


@dataclass
class SimConfig:
    uav: Uav
    buoys: list
    nodes: list
    wake_requests: list = field(default_factory=list)
    horizon_s: float = 3600.0


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
    An entry holds a record's fields but its time, in field order.  A run
    makes its entries before the loop (per link-table row and outcome,
    node, buoy and technology, and for the UAV), so the table grows with
    the links, not the arrivals.  A record is built on access; a log
    compares equal to a list of the same records, or to another log, and
    its repr is that of the list.
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

    def add(self, time_ns, code):
        self.times.append(time_ns)
        self.codes.append(code)

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
        first, second, detail = self.entries[code >> _TARGET_BITS]
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
    failures: RunLog  # of FailureRecord
    nodes: dict  # address -> NodeReport


class _NodeRuntime:
    """Mutable per-node bookkeeping while the event loop runs."""

    def __init__(self, node: Node, horizon_ns, events, failures):
        self.node = node
        self.actor = actor = f"node{node.address}"
        # The node's log codes: (event, failure) for an arrival that finds
        # it flat or names another target, an arrival ignored while active
        # or from a request that woke it already, its sleep and depletion.
        self.depleted = (events.entry(actor, "wus_arrival", "depleted"),
                         failures.entry(DEPLETED, actor, "target={}"))
        self.mismatch = (events.entry(actor, "wus_arrival", "address_mismatch target={}"),
                         failures.entry(ADDRESS_MISMATCH, actor,
                                        f"target={{}} local={node.address}"))
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


def _check_records(config, name, record):
    """A list field of the config holds a list (or tuple) of ``record``s."""
    items = getattr(config, name)
    if not isinstance(items, (list, tuple)):
        raise ConfigError(f"{name} must be a list: {items!r}")
    for i, item in enumerate(items):
        if not isinstance(item, record):
            raise ConfigError(f"{name}[{i}] must be a {record.__name__}: {item!r}")


def _validate(config: SimConfig):
    """The rules that span records; each record checks its own fields."""
    if not _valid_horizon(config.horizon_s):
        raise ConfigError(f"horizon must be positive and finite in whole ns: {config.horizon_s!r}")
    horizon_s = _to_ns(config.horizon_s) / _NS
    if not isinstance(config.uav, Uav):
        raise ConfigError(f"uav must be a Uav: {config.uav!r}")
    _check_records(config, "buoys", Buoy)
    _check_records(config, "nodes", Node)
    _check_records(config, "wake_requests", WakeRequest)
    if not config.buoys:
        raise ConfigError("config needs at least one buoy")
    seen = set()
    for node in config.nodes:
        if node.address in seen:
            raise ConfigError(f"duplicate address: {node.address}")
        seen.add(node.address)
        # the largest charge a run computes, in mA*s
        if not node.energy.active_current_ma * horizon_s <= sys.float_info.max:
            raise ConfigError(
                f"node {node.address}: {node.energy.active_current_ma} mA over the "
                f"{config.horizon_s} s horizon is a charge beyond the float range"
            )
        d_min = node.link_params.min_distance_m
        for i, buoy in enumerate(config.buoys):
            if buoy.position.distance_to(node.position) < max(d_min, 1e-9):
                raise ConfigError(
                    f"node {node.address} closer than the link model's reference "
                    f"distance to buoy {i}"
                )


def _link_table(buoy, hop_ns, runtimes, technology, events, failures):
    """(delay_ns, address, runtime, miss, wake) from a buoy, ``hop_ns``
    after the UAV, to each node of a technology, sorted by (delay_ns,
    address): the order the queue pops one broadcast's arrivals.  Received
    power and sensitivity are fixed per (buoy, node), so whether the node
    hears the buoy is decided here: ``miss`` is None if it does, else the
    codes of the ``wus_arrival`` event and the failure that every arrival
    on that link logs.  So is the wake latency, the UAV hop plus the link
    delay: ``wake`` is (latency_s, the ``node_wake`` code) if the node
    hears the buoy, else None."""
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
                miss = (
                    events.entry(actor, "wus_arrival", f"below_sensitivity rx_dbm={rx_dbm:.3f}"),
                    failures.entry(OUT_OF_RANGE, actor, f"rx {rx_dbm:.3f} dBm below "
                                   f"sensitivity {node.sensitivity_dbm:.3f} dBm"),
                )
            else:
                latency_s = (hop_ns + delay_ns) / _NS
                wake = (latency_s, events.entry(actor, "node_wake", f"latency_s={latency_s:.9f}"))
            table.append((delay_ns, node.address, nrt, miss, wake))
    table.sort(key=itemgetter(0, 1))
    return table


@contextmanager
def _gc_paused():
    """Pause the cyclic garbage collector, then restore it as it was: the
    loop allocates only acyclic objects (queue entries, log entries), and
    rescanning them would cost a sizeable share of the run."""
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        yield
    finally:
        if was_enabled:
            gc.enable()


def run(config: SimConfig) -> SimReport:
    """Run the event loop to the horizon and assemble the report.

    Protocol outcomes (missed wake-ups, mismatches, depleted targets) are
    report records, never exceptions; only an invalid config raises.  The
    cyclic garbage collector is paused for the run.
    """
    with _gc_paused():
        _validate(config)
        # Sorted stably by whole ns, not by time_s: two times can round to
        # one ns, and config order must then decide.  A request is its own
        # token, so one listed twice is one request.
        ordered = sorted(config.wake_requests, key=lambda r: _to_ns(r.time_s))
        return _run(config, ((_to_ns(r.time_s), r.target_address, r) for r in ordered))


def _run(config: SimConfig, requests) -> SimReport:
    """The run of a validated config on ``requests``, an iterable of
    (whole ns, target, token) in run order.  Relays of requests with one
    token (compared with ``is``) wake a node once."""
    horizon_ns = _to_ns(config.horizon_s)
    events = RunLog(SimEvent, horizon_ns)
    failures = RunLog(FailureRecord, horizon_ns)
    log_event, log_failure = events.add, failures.add
    runtimes = {
        node.address: _NodeRuntime(node, horizon_ns, events, failures) for node in config.nodes
    }
    heap = []
    seq = itertools.count()
    requests = iter(requests)
    first = next(requests, None)
    if first is not None:
        heappush(heap, (first[0], _PRIO_REQUEST, 0, next(seq), first))
    requested = events.entry("uav", "wake_request", "target={}")
    no_buoy = failures.entry(OUT_OF_RANGE, "uav", "no buoy within rf range")

    # The RF hop of every buoy that hears the UAV: its index, delay,
    # ``rf_arrival`` code, and per technology either its ``wus_emit`` code
    # and link table, in transmitter order, or the code of the failure to
    # reach a target of that technology.
    hops = []
    for bidx, buoy in enumerate(config.buoys):
        dist = config.uav.position.distance_to(buoy.position)
        if buoy.rf_wakeup_enabled and dist <= config.uav.rf_range_m:
            hop_ns = _to_ns(dist / LIGHT_SPEED_M_S)
            actor = f"buoy{bidx}"
            tables = {
                tech: (events.entry(actor, "wus_emit", f"tech={tech} target={{}}"),
                       _link_table(buoy, hop_ns, runtimes, tech, events, failures))
                for tech in buoy.transmitters
            }
            missing = {
                tech: failures.entry(OUT_OF_RANGE, actor, f"no {tech} transmitter for target {{}}")
                for tech in TECHNOLOGIES if tech not in tables
            }
            arrived = events.entry(actor, "rf_arrival", "target={}")
            hops.append((bidx, hop_ns, arrived, tables, missing))

    while heap and heap[0][0] <= horizon_ns:  # nothing past the horizon (or inf) runs
        entry = heappop(heap)
        kind = entry[1]

        # Signal arrivals are almost every entry, so they are tested first.
        # A broadcast's entry handles its arrivals in table order while the
        # next one still sorts before the queue's head, then goes back in
        # keyed by the first one that does not.
        if kind == _PRIO_WUS:
            t, _, addr, order, i, emitted, rows, req, target = entry
            _, _, nrt, miss, wake = rows[i]
            while True:
                if nrt.can_deplete and nrt.settle(t, events):
                    log_event(t, nrt.depleted[0] | target)
                    log_failure(t, nrt.depleted[1] | target)
                    nrt.failures += 1
                elif miss is not None:
                    log_event(t, miss[0])
                    log_failure(t, miss[1])
                    nrt.failures += 1
                elif target != addr:
                    log_event(t, nrt.mismatch[0] | target)
                    log_failure(t, nrt.mismatch[1] | target)
                    nrt.failures += 1
                elif nrt.state == ACTIVE:
                    # Fig-2-style interrupt targets a sleeping controller; an
                    # already-active node ignores further signals.
                    log_event(t, nrt.ignored)
                elif nrt.woken_by is req:
                    # Another buoy's relay of the request that already woke the
                    # node, arriving after its burst: one request, one wake.
                    log_event(t, nrt.duplicate)
                else:
                    if not nrt.can_deplete:
                        nrt.settle(t, events)
                    nrt.state = ACTIVE
                    nrt.woken_by = req
                    nrt.latencies_s.append(wake[0])
                    log_event(t, wake[1])
                    heappush(heap, (t + nrt.burst_ns, _PRIO_SLEEP, addr, next(seq), nrt))
                i += 1
                if i == len(rows):
                    break
                delay_ns, addr, nrt, miss, wake = rows[i]
                t = emitted + delay_ns
                if t > horizon_ns:  # and so is every later row
                    break
                if heap:
                    # times first: a tuple is built only on a tie
                    head_t = heap[0][0]
                    if t > head_t or t == head_t and (t, _PRIO_WUS, addr, order) > heap[0]:
                        heappush(heap, (t, _PRIO_WUS, addr, order, i, emitted, rows, req, target))
                        break

        elif kind == _PRIO_SLEEP:
            t, nrt = entry[0], entry[4]
            if not nrt.settle(t, events) and nrt.state == ACTIVE:
                nrt.state = SLEEP
                log_event(t, nrt.asleep)

        elif kind == _PRIO_RF:
            t, _, _, _, arrived, tables, missing, req, target = entry
            log_event(t, arrived | target)
            nrt = runtimes.get(target)
            if nrt is None:
                # Unknown address: broadcast on everything equipped and let
                # the per-node address filters sort it out.
                emits = tables.values()
            elif nrt.node.technology in tables:
                emits = (tables[nrt.node.technology],)
            else:
                log_failure(t, missing[nrt.node.technology] | target)
                emits = ()
            for emitted_code, rows in emits:
                log_event(t, emitted_code | target)
                if rows:
                    delay_ns, addr = rows[0][:2]
                    heappush(
                        heap, (t + delay_ns, _PRIO_WUS, addr, next(seq), 0, t, rows, req, target)
                    )

        else:  # a request
            t, (_, target, req) = entry[0], entry[4]
            log_event(t, requested | target)
            for bidx, delay_ns, arrived, tables, missing in hops:
                heappush(heap, (t + delay_ns, _PRIO_RF, bidx, next(seq), arrived, tables,
                                missing, req, target))
            if not hops:
                log_failure(t, no_buoy)
            following = next(requests, None)
            if following is not None:
                heappush(heap, (following[0], _PRIO_REQUEST, 0, next(seq), following))

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
    return SimReport(
        horizon_s=config.horizon_s,
        events=events,
        failures=failures,
        nodes=node_reports,
    )


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
    # An int horizon stays an int, so one beyond the float range is
    # rejected below instead of raising OverflowError here, as is a bool.
    horizon_s = horizon_hours * 3600 if is_number(horizon_hours) else None
    if not _valid_horizon(horizon_s):
        raise ConfigError(
            f"horizon must be positive and finite in whole ns: {horizon_hours!r} h"
        )
    requests = ()
    if wake_rate_per_hour > 0.0:
        # Whole-ns instants k * interval, so no two requests come closer than
        # the rate says; an interval past the horizon asks once, at t = 0.
        horizon_ns = _to_ns(horizon_s)
        interval_ns = min(max(_to_ns(3600.0 / wake_rate_per_hour), 1), horizon_ns)
        count = -(-horizon_ns // interval_ns)
        if count > MAX_POINTS:
            raise ConfigError(
                f"{wake_rate_per_hour} wakes/h over {horizon_hours} h "
                f"is more than {MAX_POINTS} requests"
            )
        # k is the token of the k-th request
        requests = ((k * interval_ns, node.address, k) for k in range(count))
    config = SimConfig(
        uav=Uav(Position3D(node.position.x, node.position.y, -10.0), rf_range_m=100.0),
        buoys=[Buoy(Position3D(node.position.x, node.position.y, 0.0))],
        nodes=[node],
        horizon_s=horizon_s,
    )
    with _gc_paused():
        _validate(config)
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
