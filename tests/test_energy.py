"""Closed-form lifetime under the three wake policies."""

import random
from dataclasses import replace
from math import inf, nan

import pytest

from iout_wakeup.energy import (
    ACOUSTIC_ENERGY,
    MI_ENERGY,
    OPTICAL_ENERGY,
    EnergyProfile,
    WakePolicy,
    active_charge_ratio,
    average_current,
    lifetime_hours,
)
from iout_wakeup.errors import DomainError, PolicyError

ALL_PROFILES = (ACOUSTIC_ENERGY, OPTICAL_ENERGY, MI_ENERGY)


def test_average_current_frozen_values():
    # (n*t*I_active + (3600 - n*t)*I_sleep) / 3600 with the acoustic currents
    assert average_current(ACOUSTIC_ENERGY, WakePolicy.on_demand(1.0)) == pytest.approx(
        0.015134722222222221, rel=1e-12
    )
    assert average_current(ACOUSTIC_ENERGY, WakePolicy.duty_cycle(5.0)) == pytest.approx(
        0.01567361111111111, rel=1e-12
    )


def test_no_wakeup_average_is_active_current():
    for profile in ALL_PROFILES:
        assert average_current(profile, WakePolicy.no_wakeup()) == profile.active_current_ma


def test_degenerate_always_active_rate():
    for profile in ALL_PROFILES:
        rate = 3600.0 / profile.active_duration_s
        assert average_current(profile, WakePolicy.duty_cycle(rate)) == pytest.approx(
            profile.active_current_ma, rel=1e-12
        )


def test_lifetime_frozen_values():
    assert lifetime_hours(ACOUSTIC_ENERGY, WakePolicy.no_wakeup()) == 1900.0
    assert lifetime_hours(ACOUSTIC_ENERGY, WakePolicy.on_demand(1.0)) == pytest.approx(
        62769.56960631367, rel=1e-12
    )
    assert lifetime_hours(OPTICAL_ENERGY, WakePolicy.no_wakeup()) == pytest.approx(
        263.88888888888886, rel=1e-12
    )


def test_lifetime_policy_ordering_all_profiles():
    for profile in ALL_PROFILES:
        no_wu = lifetime_hours(profile, WakePolicy.no_wakeup())
        dc5 = lifetime_hours(profile, WakePolicy.duty_cycle(5.0))
        od1 = lifetime_hours(profile, WakePolicy.on_demand(1.0))
        assert no_wu < dc5 < od1


def test_equal_rates_give_identical_lifetimes():
    rng = random.Random(19)
    for profile in ALL_PROFILES:
        for _ in range(50):
            n = rng.uniform(0.0, 3600.0 / profile.active_duration_s)
            assert lifetime_hours(profile, WakePolicy.duty_cycle(n)) == lifetime_hours(
                profile, WakePolicy.on_demand(n)
            )


def test_lifetime_decreasing_in_rate():
    rng = random.Random(23)
    for profile in ALL_PROFILES:
        for _ in range(100):
            n1 = rng.uniform(0.0, 3000.0)
            n2 = n1 + rng.uniform(1.0, 500.0)
            assert lifetime_hours(profile, WakePolicy.on_demand(n2)) < lifetime_hours(
                profile, WakePolicy.on_demand(n1)
            )


def test_lifetime_decreasing_in_both_currents():
    base = EnergyProfile(950.0, 0.5, 0.015, 1.0)
    hotter_sleep = EnergyProfile(950.0, 0.5, 0.03, 1.0)
    hotter_active = EnergyProfile(950.0, 1.0, 0.015, 1.0)
    policy = WakePolicy.duty_cycle(5.0)
    assert lifetime_hours(hotter_sleep, policy) < lifetime_hours(base, policy)
    assert lifetime_hours(hotter_active, policy) < lifetime_hours(base, policy)


def test_average_current_bounded_by_modes():
    rng = random.Random(29)
    for profile in ALL_PROFILES:
        for _ in range(100):
            n = rng.uniform(0.0, 3600.0 / profile.active_duration_s)
            avg = average_current(profile, WakePolicy.duty_cycle(n))
            assert profile.sleep_current_ma <= avg <= profile.active_current_ma


def test_overfull_hour_rejected():
    with pytest.raises(PolicyError):
        average_current(ACOUSTIC_ENERGY, WakePolicy.duty_cycle(3601.0))


def test_active_charge_ratio():
    assert active_charge_ratio(WakePolicy.duty_cycle(5.0), WakePolicy.on_demand(1.0)) == 5.0
    assert active_charge_ratio(WakePolicy.duty_cycle(3.0), WakePolicy.on_demand(3.0)) == 1.0
    assert active_charge_ratio(WakePolicy.duty_cycle(10.0), WakePolicy.on_demand(2.0)) == 5.0
    assert active_charge_ratio(WakePolicy.duty_cycle(1e308), WakePolicy.on_demand(1.0)) == 1e308
    # a ratio past the float range, or 0 from positive rates, is refused,
    # as lifetime_hours refuses a lifetime past it
    for dc, od in ((1.0, 5e-324), (1e308, 0.5), (5e-324, 1e308)):
        with pytest.raises(DomainError, match="active charge ratio .* beyond the float range"):
            active_charge_ratio(WakePolicy.duty_cycle(dc), WakePolicy.on_demand(od))


def test_active_charge_ratio_needs_positive_rates():
    with pytest.raises(PolicyError):
        active_charge_ratio(WakePolicy.duty_cycle(5.0), WakePolicy.on_demand(0.0))
    with pytest.raises(PolicyError):
        active_charge_ratio(WakePolicy.no_wakeup(), WakePolicy.on_demand(1.0))


def test_profile_validation():
    for name in ("battery_capacity_mah", "active_duration_s"):
        for value in (0, -1):
            with pytest.raises(DomainError, match=f"^{name} must be positive: {value}$"):
                replace(ACOUSTIC_ENERGY, **{name: value})
    with pytest.raises(DomainError):
        EnergyProfile(950.0, 0.015, 0.5, 1.0)  # active below sleep
    for fields in ((nan, 0.5, 0.015, 1.0), (950.0, inf, 0.015, 1.0), (950.0, 0.5, 0.015, inf)):
        with pytest.raises(DomainError, match="must be finite"):
            EnergyProfile(*fields)


def test_policy_validation():
    with pytest.raises(PolicyError):
        WakePolicy("sometimes")
    for kind in ("no_wakeup", "duty_cycle", "on_demand"):
        with pytest.raises(PolicyError, match="^rate must be non-negative: -1.0$"):
            WakePolicy(kind, -1.0)
    for rate in (nan, inf):
        with pytest.raises(DomainError, match="must be finite"):
            WakePolicy.on_demand(rate)


@pytest.mark.parametrize(
    "profile,policy",
    [
        (EnergyProfile(1e308, 0.5, 0.015, 1.0), WakePolicy.on_demand(1.0)),  # hours overflow
        (EnergyProfile(950.0, 0.5, 5e-324, 1.0), WakePolicy.on_demand(0.0)),  # current underflows
        (EnergyProfile(950.0, 1e308, 0.015, 1.0), WakePolicy.duty_cycle(3600.0)),  # draw overflows
    ],
    ids=["capacity", "sleep-current", "active-current"],
)
def test_lifetime_beyond_the_float_range_rejected(profile, policy):
    with pytest.raises(DomainError, match="beyond the float range"):
        lifetime_hours(profile, policy)
