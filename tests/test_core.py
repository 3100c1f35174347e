"""Units, geometry, per-technology link constants, and the generic range solver."""

import random

import pytest

from iout_wakeup.core import (
    ACOUSTIC,
    MI,
    OPTICAL,
    Medium,
    Position3D,
    propagation_delay,
    solve_max_range,
)
from iout_wakeup.errors import DomainError, NoSolution
from iout_wakeup.sim import LINK_TYPES, Node


def test_position_distance():
    a = Position3D(0.0, 0.0, 0.0)
    b = Position3D(3.0, 4.0, 0.0)
    assert a.distance_to(b) == 5.0


def test_position_rejects_non_finite():
    with pytest.raises(DomainError):
        Position3D(0.0, float("nan"), 0.0)
    with pytest.raises(DomainError):
        Position3D(float("inf"), 0.0, 0.0)


def test_a_float_field_holds_a_float():
    # as in a scenario, where the JSON int 0 of a float field reads back as 0.0
    position = Position3D(1, 0, 10**300)
    assert [type(v) for v in (position.x, position.y, position.z)] == [float] * 3
    assert type(Medium(1025).density_kg_m3) is float


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
    with pytest.raises(DomainError):
        propagation_delay(LINK_TYPES[ACOUSTIC](), -1.0)


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


@pytest.mark.parametrize("value", [float("nan"), float("inf"), float("-inf")])
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
