"""Closed-form node lifetime under no-wake-up, duty-cycling, and on-demand
policies.

Lifetime is pure charge arithmetic (mAh / mA): the always-on wake-up
receiver draw is folded into the sleep current, and no battery voltage or
discharge curve is modelled.  Duty cycling and on-demand wake-up share
the same averaging formula and differ only in how many activations per
hour they cause.
"""

import math
from dataclasses import dataclass, fields, replace

from .core import ACOUSTIC, MI, OPTICAL, by_technology, check_fields, check_names
from .errors import DomainError, PolicyError

NO_WAKEUP = "no_wakeup"
DUTY_CYCLE = "duty_cycle"
ON_DEMAND = "on_demand"

SECONDS_PER_HOUR = 3600.0


@dataclass(frozen=True)
class EnergyProfile:
    battery_capacity_mah: float
    active_current_ma: float
    sleep_current_ma: float
    active_duration_s: float    # per transmission burst

    def __post_init__(self):
        check_fields(self, positive=("battery_capacity_mah", "active_duration_s"))
        if not self.active_current_ma > self.sleep_current_ma > 0.0:
            raise DomainError(
                f"need active > sleep > 0: active={self.active_current_ma} mA, "
                f"sleep={self.sleep_current_ma} mA"
            )


# Reference hardware profiles per wake-up technology (capacity mAh,
# active mA, sleep mA, burst s).
ACOUSTIC_ENERGY = EnergyProfile(950.0, 0.5, 0.015, 1.0)
OPTICAL_ENERGY = EnergyProfile(950.0, 3.6, 0.083, 1.0)
MI_ENERGY = EnergyProfile(950.0, 0.49, 0.043, 1.0)

DEFAULT_ENERGY = {ACOUSTIC: ACOUSTIC_ENERGY, OPTICAL: OPTICAL_ENERGY, MI: MI_ENERGY}


_ENERGY_FIELDS = frozenset(f.name for f in fields(EnergyProfile))


def energy_profile(technology, **given):
    """The reference profile of a technology with the given fields replaced;
    a name that is not a field of ``EnergyProfile`` is a DomainError, the
    first given."""
    profile = by_technology(DEFAULT_ENERGY, technology)
    check_names(given, _ENERGY_FIELDS, f"{technology} energy profile")
    return replace(profile, **given)


@dataclass(frozen=True)
class WakePolicy:
    kind: str
    rate_per_hour: float = 0.0  # transmissions per hour; unused for NO_WAKEUP

    def __post_init__(self):
        check_fields(self)
        if self.kind not in (NO_WAKEUP, DUTY_CYCLE, ON_DEMAND):
            raise PolicyError(f"unknown policy kind: {self.kind}")
        if self.kind != NO_WAKEUP and self.rate_per_hour < 0.0:
            raise PolicyError(f"rate must be non-negative: {self.rate_per_hour}")

    @classmethod
    def no_wakeup(cls):
        return cls(NO_WAKEUP)

    @classmethod
    def duty_cycle(cls, rate_per_hour):
        return cls(DUTY_CYCLE, rate_per_hour)

    @classmethod
    def on_demand(cls, rate_per_hour):
        return cls(ON_DEMAND, rate_per_hour)


def average_current(profile: EnergyProfile, policy: WakePolicy):
    """Time-averaged battery draw in mA under a wake policy."""
    if policy.kind == NO_WAKEUP:
        return profile.active_current_ma
    active_s = policy.rate_per_hour * profile.active_duration_s
    if active_s > SECONDS_PER_HOUR:
        raise PolicyError(
            f"{policy.rate_per_hour} transmissions/h of {profile.active_duration_s} s "
            f"exceed one hour"
        )
    return (
        active_s * profile.active_current_ma
        + (SECONDS_PER_HOUR - active_s) * profile.sleep_current_ma
    ) / SECONDS_PER_HOUR


def lifetime_hours(profile: EnergyProfile, policy: WakePolicy):
    """Hours until the battery is drained at the policy's average draw."""
    current = average_current(profile, policy)
    hours = profile.battery_capacity_mah / current
    if not (hours < math.inf and current < math.inf):
        raise DomainError(
            f"lifetime of {profile.battery_capacity_mah} mAh at {current} mA "
            f"is beyond the float range"
        )
    return hours


def active_charge_ratio(dc: WakePolicy, od: WakePolicy):
    """Ratio of active-mode charge per hour, duty-cycling over on-demand.

    Burst duration and active current cancel, leaving the activation-rate
    ratio, so no energy profile enters.
    """
    if dc.kind == NO_WAKEUP or od.kind == NO_WAKEUP:
        raise PolicyError("active charge ratio needs rate-based policies")
    if od.rate_per_hour <= 0.0 or dc.rate_per_hour <= 0.0:
        raise PolicyError("active charge ratio needs positive activation rates")
    return dc.rate_per_hour / od.rate_per_hour
