"""Units, geometry, per-technology link constants, and the generic range solver."""

import math
import random

import pytest

from iout_wakeup.acoustic import thorp_absorption
from iout_wakeup.core import (
    ACOUSTIC,
    MI,
    OPTICAL,
    Medium,
    Position3D,
    field_value,
    propagation_delay,
    solve_max_range,
)
from iout_wakeup.energy import WakePolicy, energy_profile
from iout_wakeup.errors import ConfigError, DomainError, NoSolution, PolicyError
from iout_wakeup.optical import extinction_coefficient
from iout_wakeup.sim import (
    LINK_TYPES,
    Buoy,
    Node,
    SimConfig,
    Uav,
    make_link,
    make_node,
    simulate_lifetime,
)


def test_position_distance():
    a = Position3D(0.0, 0.0, 0.0)
    b = Position3D(3.0, 4.0, 0.0)
    assert a.distance_to(b) == 5.0


def test_position_rejects_non_finite():
    with pytest.raises(DomainError):
        Position3D(0.0, float("nan"), 0.0)
    with pytest.raises(DomainError):
        Position3D(float("inf"), 0.0, 0.0)


# past the interpreter's 4300-digit limit: repr and str of it raise ValueError
_HUGE = 10**5000
_SURFACE = Position3D(0.0, 0.0, 0.0)


def _config(**given):
    fields = dict(uav=Uav(Position3D(0.0, 0.0, -10.0)), buoys=[Buoy(_SURFACE)], nodes=[])
    return SimConfig(**dict(fields, **given))


@pytest.mark.parametrize("build,error", [
    (lambda: Position3D(_HUGE, 0, 1), DomainError),
    (lambda: Node(1, _HUGE, ACOUSTIC), DomainError),
    (lambda: Buoy(_SURFACE, rf_wakeup_enabled=_HUGE), ConfigError),
    (lambda: make_link(_HUGE), ConfigError),
    (lambda: energy_profile(_HUGE), ConfigError),
    (lambda: Node(1, Position3D(0.0, 0.0, 10.0), _HUGE), ConfigError),
    (lambda: Buoy(_SURFACE, transmitters=(_HUGE,)), ConfigError),
    (lambda: Buoy(_SURFACE, transmitters=_HUGE), ConfigError),
    (lambda: WakePolicy(_HUGE), PolicyError),
    (lambda: extinction_coefficient(_HUGE), DomainError),
    (lambda: _config(horizon_s=10**4301), ConfigError),
    (lambda: simulate_lifetime(make_node(ACOUSTIC), 10.0, 10**4300), ConfigError),
    (lambda: _config(buoys=_HUGE), ConfigError),
    (lambda: _config(nodes=[_HUGE]), ConfigError),
    (lambda: _config(uav=_HUGE), ConfigError),
    (lambda: LINK_TYPES[MI]().received_power_dbm(_HUGE), DomainError),
    (lambda: LINK_TYPES[OPTICAL]().sweep(1.0, _HUGE, 2), DomainError),
    (lambda: solve_max_range(_ramp, -5.0, 1.0, _HUGE), DomainError),
    (lambda: propagation_delay(LINK_TYPES[ACOUSTIC](), _HUGE), DomainError),
    (lambda: thorp_absorption(_HUGE), DomainError),
], ids=[
    "float-field", "record-field", "bool-field", "make-link", "energy-profile",
    "node-technology", "transmitter", "transmitters", "policy-kind", "water-type",
    "horizon", "lifetime-horizon", "config-list", "config-record", "config-uav",
    "distance", "sweep-step", "bracket", "delay", "frequency",
])
def test_an_error_message_never_raises(build, error):
    """A message shows a given value it cannot render as a short note."""
    with pytest.raises(error, match="<int that cannot be shown>"):
        build()


def test_a_float_field_holds_a_float():
    # as in a scenario, where the JSON int 0 of a float field reads back as 0.0
    position = Position3D(1, 0, 10**300)
    assert [type(v) for v in (position.x, position.y, position.z)] == [float] * 3
    assert type(Medium(1025).density_kg_m3) is float


def test_a_bool_field_holds_the_bool_given():
    for value in (True, False):
        assert field_value("rf_wakeup_enabled", bool, value) is value


def test_medium_validation():
    for name in ("density_kg_m3", "sound_speed_m_s"):
        for value in (0, -1):
            with pytest.raises(DomainError, match=f"^{name} must be positive: {value}$"):
                Medium(**{name: value})


def test_profile_speeds():
    # Each link class states its wave speed and reference sensitivity; a
    # node built without a sensitivity takes its link's.
    expected = {ACOUSTIC: (1500.0, -10.0), OPTICAL: (3.0e8, -53.0), MI: (3.0e8, -69.0)}
    assert set(LINK_TYPES) == set(expected)
    for tech, link_type in LINK_TYPES.items():
        speed, sensitivity = expected[tech]
        assert link_type().propagation_speed_m_s == speed
        assert link_type.default_sensitivity_dbm == sensitivity
        assert Node(1, Position3D(0.0, 0.0, 10.0), tech).sensitivity_dbm == sensitivity


def test_propagation_delay_values():
    assert propagation_delay(LINK_TYPES[ACOUSTIC](), 150.0) == pytest.approx(0.1, rel=1e-12)
    assert propagation_delay(LINK_TYPES[ACOUSTIC](), 0.0) == 0.0
    assert propagation_delay(LINK_TYPES[OPTICAL](), 90.0) == pytest.approx(3e-7, rel=1e-12)
    # a distance past the float range: the signal never arrives
    assert propagation_delay(LINK_TYPES[MI](), math.inf) == math.inf
    # sound travels at its medium's speed
    slow = LINK_TYPES[ACOUSTIC](medium=Medium(sound_speed_m_s=1480.0))
    assert propagation_delay(slow, 148.0) == 148.0 / 1480.0


def test_propagation_delay_linear_in_distance():
    rng = random.Random(11)
    for _ in range(200):
        d = rng.uniform(0.1, 5000.0)
        link = LINK_TYPES[rng.choice([ACOUSTIC, OPTICAL, MI])]()
        d1 = propagation_delay(link, d)
        d2 = propagation_delay(link, 2.0 * d)
        assert abs(d2 - 2.0 * d1) <= 1e-12 * d2


def test_propagation_delay_rejects_negative():
    for distance in (-1.0, math.nan):
        with pytest.raises(DomainError, match=f"^distance must be non-negative: {distance}$"):
            propagation_delay(LINK_TYPES[ACOUSTIC](), distance)
    # an int past the float range is no distance in it, though inf is
    with pytest.raises(DomainError, match="^distance must be a number in the float range"):
        propagation_delay(LINK_TYPES[ACOUSTIC](), 10**400)


def _ramp(d):
    # 0 dBm at 1 m falling 1 dB/m: crossing with sensitivity s at 1 - s metres.
    return -(d - 1.0)


def test_solver_finds_linear_crossing():
    d = solve_max_range(_ramp, -40.0, 1.0, 1000.0, tol_m=1e-6)
    assert d == pytest.approx(41.0, abs=1e-5)


def test_solver_inversion_property():
    d = solve_max_range(_ramp, -123.456, 1.0, 1000.0, tol_m=0.01)
    # returned point brackets the crossing within the tolerance
    assert _ramp(d - 0.01) >= -123.456 >= _ramp(d + 0.01)


def test_solver_result_independent_of_tol():
    coarse = solve_max_range(_ramp, -77.0, 1.0, 1000.0, tol_m=0.5)
    fine = solve_max_range(_ramp, -77.0, 1.0, 1000.0, tol_m=1e-6)
    assert abs(coarse - fine) <= 0.5


def test_solver_monotone_in_sensitivity():
    rng = random.Random(3)
    for _ in range(100):
        s1 = rng.uniform(-500.0, -110.0)
        s2 = s1 + rng.uniform(0.1, 100.0)
        d1 = solve_max_range(_ramp, s1, 1.0, 1000.0, tol_m=1e-4)
        d2 = solve_max_range(_ramp, s2, 1.0, 1000.0, tol_m=1e-4)
        assert d1 >= d2 - 1e-4


def test_solver_rejects_constant_power_above_sensitivity():
    with pytest.raises(NoSolution):
        solve_max_range(lambda d: 0.0, -10.0, 1.0, 1000.0)


def test_solver_rejects_unreachable_sensitivity():
    with pytest.raises(NoSolution):
        solve_max_range(_ramp, 10.0, 1.0, 1000.0)


def test_solver_rejects_bad_bracket():
    with pytest.raises(DomainError):
        solve_max_range(_ramp, -10.0, 100.0, 10.0)
    with pytest.raises(DomainError):
        solve_max_range(_ramp, -10.0, 1.0, 1000.0, tol_m=0.0)


@pytest.mark.parametrize("value", [float("nan"), float("inf"), float("-inf"), 10**400])
def test_solver_rejects_non_finite_input(value):
    with pytest.raises(DomainError):
        solve_max_range(_ramp, value, 1.0, 1000.0)
    with pytest.raises(DomainError):
        solve_max_range(_ramp, -10.0, 1.0, value)
    with pytest.raises(DomainError):
        solve_max_range(_ramp, -10.0, 1.0, 1000.0, tol_m=value)


def test_solver_deterministic():
    runs = {solve_max_range(_ramp, -55.5, 1.0, 1000.0, tol_m=0.001) for _ in range(5)}
    assert len(runs) == 1
