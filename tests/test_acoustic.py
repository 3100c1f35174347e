"""Acoustic link: absorption, transmission loss, received density, max range."""

import math
import random

import pytest

from iout_wakeup.acoustic import (
    AcousticLinkParams,
    acoustic_max_range,
    received_power_density_dbm,
    sweep_received_power,
    thorp_absorption,
)
from iout_wakeup.core import Medium
from iout_wakeup.errors import DomainError

# Hand evaluations of 0.11 f^2/(1+f^2) + 44 f^2/(4100+f^2) + 2.75e-4 f^2 + 0.003
THORP_8K = 0.8051805069090371
THORP_48K = 16.576658461292496


def test_thorp_frozen_values():
    assert thorp_absorption(8.0) == pytest.approx(THORP_8K, rel=1e-12)
    assert thorp_absorption(48.0) == pytest.approx(THORP_48K, rel=1e-12)


def test_thorp_low_frequency_floor():
    assert thorp_absorption(1e-4) == pytest.approx(0.003, abs=1e-6)
    assert thorp_absorption(50.0) >= 0.003


def test_thorp_increasing_on_band():
    prev = thorp_absorption(1.0)
    for f in range(2, 101):
        cur = thorp_absorption(float(f))
        assert cur > prev
        prev = cur


def test_thorp_rejects_nonpositive():
    with pytest.raises(DomainError):
        thorp_absorption(0.0)
    with pytest.raises(DomainError):
        thorp_absorption(-8.0)


@pytest.mark.parametrize("f", [5e153, 1.4e154, 1e200, 1.7e308])
def test_absorption_beyond_the_float_range_rejected(f):
    # 44*f*f overflows (inf), then f*f does too (inf/inf = NaN)
    with pytest.raises(DomainError, match="beyond the float range"):
        thorp_absorption(f)
    with pytest.raises(DomainError, match="beyond the float range"):
        AcousticLinkParams(frequency_khz=f)


def test_absorption_near_the_float_range_is_finite():
    f2 = 2e153 * 2e153
    expected = 0.11 * f2 / (1.0 + f2) + 44.0 * f2 / (4100.0 + f2) + 2.75e-4 * f2 + 0.003
    assert AcousticLinkParams(frequency_khz=2e153).alpha_db_per_km == expected


def test_transmission_loss_at_reference_distance():
    params = AcousticLinkParams()
    # log10(1) = 0; only the (negligible) absorption term remains
    assert params.transmission_loss_db(1.0) == pytest.approx(THORP_8K / 1000.0, abs=1e-12)


def test_transmission_loss_frozen_values():
    assert AcousticLinkParams(frequency_khz=8.0).transmission_loss_db(260.0) == pytest.approx(
        48.508813891212704, rel=1e-12
    )
    assert AcousticLinkParams(frequency_khz=48.0).transmission_loss_db(190.0) == pytest.approx(
        48.72463712670215, rel=1e-12
    )


def test_transmission_loss_increasing_in_distance_and_frequency():
    rng = random.Random(5)
    for _ in range(200):
        f = rng.uniform(1.0, 100.0)
        d = rng.uniform(1.0, 5000.0)
        params = AcousticLinkParams(frequency_khz=f)
        assert params.transmission_loss_db(d * 1.5) > params.transmission_loss_db(d)
        bumped = AcousticLinkParams(frequency_khz=f * 1.5)
        assert bumped.transmission_loss_db(d) > params.transmission_loss_db(d)


def test_transmission_loss_rejects_below_reference():
    with pytest.raises(DomainError):
        received_power_density_dbm(AcousticLinkParams(), 0.5)


def test_received_density_sensitivity_anchors():
    # both published crossings must sit within 1 dB of -10 dBm
    p8 = received_power_density_dbm(AcousticLinkParams(frequency_khz=8.0), 260.0)
    p48 = received_power_density_dbm(AcousticLinkParams(frequency_khz=48.0), 190.0)
    assert p8 == pytest.approx(-10.0, abs=1.0)
    assert p48 == pytest.approx(-10.0, abs=1.0)


def test_received_density_at_one_metre():
    # 190 dB source level through p^2/(rho c) with rho c = 1.5e6
    p = received_power_density_dbm(AcousticLinkParams(), 1.0)
    assert p == pytest.approx(38.23828222893627, rel=1e-12)


def test_source_level_and_loss_consistency():
    params = AcousticLinkParams(frequency_khz=12.0)
    for d in (1.0, 50.0, 400.0):
        rl_db = params.source_level_db - params.transmission_loss_db(d)
        offset = -90.0 - 10.0 * math.log10(1000.0 * 1500.0)
        assert received_power_density_dbm(params, d) == pytest.approx(
            rl_db + offset, abs=1e-12
        )


def test_received_density_strictly_decreasing():
    rng = random.Random(9)
    for _ in range(300):
        f = rng.uniform(1.0, 100.0)
        params = AcousticLinkParams(frequency_khz=f)
        d = rng.uniform(1.0, 3000.0)
        step = rng.uniform(0.1, 500.0)
        assert received_power_density_dbm(params, d + step) < received_power_density_dbm(
            params, d
        )


def test_lower_frequency_received_more_strongly():
    rng = random.Random(13)
    for _ in range(200):
        f1 = rng.uniform(8.0, 47.0)
        f2 = rng.uniform(f1 + 0.5, 48.0)
        d = rng.uniform(1.5, 2000.0)
        p1 = received_power_density_dbm(AcousticLinkParams(frequency_khz=f1), d)
        p2 = received_power_density_dbm(AcousticLinkParams(frequency_khz=f2), d)
        assert p1 > p2


def test_max_range_anchors():
    r8 = acoustic_max_range(AcousticLinkParams(frequency_khz=8.0), -10.0)
    r48 = acoustic_max_range(AcousticLinkParams(frequency_khz=48.0), -10.0)
    assert abs(r8 - 260.0) <= 26.0
    assert abs(r48 - 190.0) <= 19.0


def test_max_range_decreasing_in_frequency():
    ranges = [
        acoustic_max_range(AcousticLinkParams(frequency_khz=f), -10.0)
        for f in (8.0, 16.0, 24.0, 36.0, 48.0)
    ]
    assert all(a > b for a, b in zip(ranges, ranges[1:]))


def test_max_range_solver_inversion():
    params = AcousticLinkParams()
    sensitivity = received_power_density_dbm(params, 100.0)
    assert acoustic_max_range(params, sensitivity) == pytest.approx(100.0, abs=0.02)


def test_sweep_matches_scalar():
    params = AcousticLinkParams(frequency_khz=17.0)
    values = sweep_received_power(params, 2.0, 3.0, 50)
    for i, v in enumerate(values):
        assert v == received_power_density_dbm(params, 2.0 + i * 3.0)


def test_params_validation():
    with pytest.raises(DomainError):
        AcousticLinkParams(frequency_khz=0.0)
    with pytest.raises(DomainError):
        AcousticLinkParams(spreading_exponent=17.0)


def test_medium_enters_intensity_conversion():
    dense = AcousticLinkParams(medium=Medium(density_kg_m3=1030.0))
    base = AcousticLinkParams()
    # denser water -> lower intensity for the same pressure level
    assert received_power_density_dbm(dense, 10.0) < received_power_density_dbm(base, 10.0)
