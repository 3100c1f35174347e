"""Shared units, geometry, the link-law base class, and the range solver.

Conventions used throughout the package:

* Powers are handled in dBm.  For acoustic links the value is a power
  *density* in dBm re 1 mW/m^2 (hydrophone-side intensity); for optical
  and MI links it is plain dBm re 1 mW.  Zero linear power is the
  ``-inf`` sentinel.
* Coordinates are metres with z positive *down*: the water surface is
  z = 0, buoys float at z = 0, submerged nodes have z > 0 and airborne
  vehicles z < 0.
"""

import math
import sys
from dataclasses import dataclass, fields, is_dataclass
from functools import cache

from .errors import ConfigError, DomainError, NoSolution

# dBm value meaning "no received power at all" (linear power 0).
NEG_INF_DBM = float("-inf")

SOUND_SPEED_M_S = 1500.0
LIGHT_SPEED_M_S = 3.0e8

ACOUSTIC = "acoustic"
OPTICAL = "optical"
MI = "mi"
TECHNOLOGIES = (ACOUSTIC, OPTICAL, MI)

# A sweep, rate grid or request list longer than this is refused rather
# than allocated.
MAX_POINTS = 1_000_000

_FLOAT_MAX = sys.float_info.max


def by_technology(table, technology):
    """``table[technology]``; ConfigError unless it is one of TECHNOLOGIES."""
    if technology not in TECHNOLOGIES:
        raise ConfigError(f"unknown technology: {technology}")
    return table[technology]


def check_names(given, names, what):
    """DomainError naming the first of the ``given`` names, in their order,
    that ``names`` does not hold: ``<name> is not a field of the <what>``."""
    for name in given:
        if name not in names:
            raise DomainError(f"{name} is not a field of the {what}")


def is_number(value):
    """Whether a float field takes ``value``: an int or float, not a bool, in the float range."""
    return isinstance(value, (int, float)) and type(value) is not bool and abs(value) <= _FLOAT_MAX


_KIND_NAMES = {float: "a number", int: "an integer", bool: "a boolean"}


def field_value(name, kind, value):
    """What a field of type ``kind`` holds when given ``value``.  A float
    field holds a float (an int is converted), an int field an exact int:
    DomainError if the value is not a number inside the float range,
    ConfigError if it is a bool or a float in an int field.  A bool field
    holds a bool, else ConfigError; a record-class field an instance of it,
    else DomainError."""
    if kind not in _KIND_NAMES:  # a record class
        if isinstance(value, kind):
            return value
        raise DomainError(f"{name} must be of type {kind.__name__}: {value!r}")
    if type(value) is bool:
        if kind is bool:
            return value
    elif kind is not bool:
        if not is_number(value):
            raise DomainError(f"{name} must be finite: {value!r}")
        if kind is float or type(value) is int:
            return kind(value)
    raise ConfigError(f"{name} must be {_KIND_NAMES[kind]}: {value!r}")


@cache
def _checked_fields(cls):
    """(name, type, whether a number) of each float, int, bool or record-class field."""
    return tuple((f.name, f.type, f.type in (float, int)) for f in fields(cls)
                 if f.type in (float, int, bool) or is_dataclass(f.type))


def check_fields(obj, positive=()):
    """Hold each float, int, bool or record-class field of a dataclass to
    ``field_value``'s rule, storing what it holds, and raise DomainError
    (naming the value as given) unless each field in ``positive`` is above 0."""
    for name, kind, number in _checked_fields(type(obj)):
        value = held = getattr(obj, name)
        # the common case, held as it is: a value of the field's type, in range if a number
        if type(value) is not kind or number and not -_FLOAT_MAX <= value <= _FLOAT_MAX:
            held = field_value(name, kind, value)
            object.__setattr__(obj, name, held)
        if positive and name in positive and not held > 0:
            raise DomainError(f"{name} must be positive: {value}")


def cos_misalignment(beta_deg):
    """cos(beta) of a misalignment angle, which must be in [0, 90] degrees;
    exactly 0 at 90 (cos(radians(90)) is ~6e-17)."""
    if not 0.0 <= beta_deg <= 90.0:
        raise DomainError(f"misalignment must be in [0, 90]: {beta_deg} deg")
    return 0.0 if beta_deg == 90.0 else math.cos(math.radians(beta_deg))


@dataclass(frozen=True)
class Position3D:
    """Point in metres; z positive down, water surface at z = 0."""

    x: float
    y: float
    z: float

    def __post_init__(self):
        check_fields(self)

    def distance_to(self, other):
        return math.dist((self.x, self.y, self.z), (other.x, other.y, other.z))


@dataclass(frozen=True)
class Medium:
    """Bulk water properties entering the acoustic intensity conversion."""

    density_kg_m3: float = 1000.0
    sound_speed_m_s: float = SOUND_SPEED_M_S

    def __post_init__(self):
        check_fields(self, positive=("density_kg_m3", "sound_speed_m_s"))


def propagation_delay(link, distance_m):
    """One-way signal travel time in seconds over a link."""
    if distance_m < 0.0:
        raise DomainError(f"negative distance: {distance_m}")
    return distance_m / link.propagation_speed_m_s


class LinkLaw:
    """Distance checks, sweeps and the range solve shared by the link
    parameter dataclasses, one per wake-up technology.

    A subclass defines ``rx_dbm(d)``, the received power in dBm at a
    distance the caller has checked; ``min_distance_m``, the shortest
    distance its law is defined at (distances must also be positive);
    ``max_range_bracket_m``, the (d_min, d_max) searched by ``max_range``;
    ``sweep_range_m``, the default (start, end) of a CLI sweep;
    ``propagation_speed_m_s``, the wave speed of its signal; and
    ``default_sensitivity_dbm``, the reference receiver sensitivity.
    """

    def check_distance(self, distance_m):
        if not (distance_m >= self.min_distance_m and 0.0 < distance_m < math.inf):
            raise DomainError(
                f"distance must be positive, finite and at least {self.min_distance_m} m: "
                f"{distance_m} m"
            )

    def received_power_dbm(self, distance_m):
        """Received power in dBm at a checked distance."""
        self.check_distance(distance_m)
        return self.rx_dbm(distance_m)

    def sweep(self, d0, step, n):
        """Received power at d0, d0+step, ... (n points, an int from 0 to
        MAX_POINTS).  The step must be finite and non-negative, so checking
        the first and last points checks them all."""
        n = field_value("sweep point count", int, n)
        if not 0 <= n <= MAX_POINTS:
            raise DomainError(f"sweep point count must be from 0 to {MAX_POINTS}: {n}")
        if not 0.0 <= step < math.inf:
            raise DomainError(f"sweep step must be finite and non-negative: {step} m")
        self.check_distance(d0)
        self.check_distance(d0 + max(n - 1, 0) * step)
        rx_dbm = self.rx_dbm
        return [rx_dbm(d0 + i * step) for i in range(n)]

    def max_range(self, sensitivity_dbm, tol_m=0.01):
        """Largest range (m) still meeting the receiver sensitivity."""
        d_min, d_max = self.max_range_bracket_m
        return solve_max_range(self.rx_dbm, sensitivity_dbm, d_min, d_max, tol_m)


def solve_max_range(rx_power_dbm, sensitivity_dbm, d_min, d_max, tol_m=0.01):
    """Largest distance at which a monotone link still meets the sensitivity.

    ``rx_power_dbm`` is any non-increasing function of distance on
    [d_min, d_max].  Bisects the sensitivity crossing down to ``tol_m``
    metres and returns the bracket midpoint.

    Raises NoSolution when the crossing is not inside the bracket:
    either the link is still above the sensitivity at d_max (range
    exceeds the bracket) or already below it at d_min (unreachable).
    """
    if not math.isfinite(sensitivity_dbm):
        raise DomainError(f"sensitivity must be finite: {sensitivity_dbm} dBm")
    if not (math.isfinite(d_min) and math.isfinite(d_max) and d_min < d_max):
        raise DomainError(f"invalid bracket [{d_min}, {d_max}]")
    if not 0.0 < tol_m < math.inf:
        raise DomainError(f"invalid tolerance {tol_m}")
    if rx_power_dbm(d_min) < sensitivity_dbm:
        raise NoSolution(
            f"received power at d_min={d_min} m is below sensitivity {sensitivity_dbm} dBm"
        )
    if rx_power_dbm(d_max) >= sensitivity_dbm:
        raise NoSolution(
            f"received power at d_max={d_max} m still meets sensitivity {sensitivity_dbm} dBm"
        )
    lo, hi = d_min, d_max
    while hi - lo > tol_m:
        mid = 0.5 * (lo + hi)
        if rx_power_dbm(mid) >= sensitivity_dbm:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)
