"""Optical link: extinction table, capture geometry, misalignment, max range."""

import math
import random

import pytest

from iout_wakeup.core import NEG_INF_DBM
from iout_wakeup.errors import DomainError, NoSolution
from iout_wakeup.optical import (
    DB_PER_NEPER,
    OpticalLinkParams,
    WaterType,
    extinction_coefficient,
    optical_max_range,
    received_power_dbm,
    sweep_received_power,
)
from iout_wakeup.sim import make_link


def test_extinction_table():
    assert extinction_coefficient(WaterType.PURE_SEA) == 0.056
    assert extinction_coefficient(WaterType.CLEAR_OCEAN) == 0.151
    assert extinction_coefficient(WaterType.COASTAL) == 0.305
    assert extinction_coefficient(WaterType.HARBOR) == 2.17


def test_unknown_water_type_is_a_domain_error():
    for maker in (extinction_coefficient, lambda w: make_link("optical", water_type=w)):
        with pytest.raises(DomainError, match="one of pure_sea, clear_ocean, coastal, harbor"):
            maker("muddy")


def test_an_explicit_none_water_type_is_a_domain_error():
    # as extinction_per_m=None is: None is a value given, not "not given"
    with pytest.raises(DomainError, match="^water_type must be a water type: None$"):
        make_link("optical", water_type=None)


def test_extinction_ordering():
    values = [extinction_coefficient(w) for w in WaterType]
    assert all(a < b for a, b in zip(values, values[1:]))


def test_lossless_capped_region_returns_transmit_power():
    params = OpticalLinkParams(extinction_per_m=0.0)
    # beam narrower than the aperture close in: all 250 mW collected
    assert received_power_dbm(params, 1.0) == pytest.approx(23.979400086720375, rel=1e-12)


def test_full_misalignment_is_sentinel():
    params = OpticalLinkParams(misalignment_beta_deg=90.0)
    assert received_power_dbm(params, 50.0) == NEG_INF_DBM
    assert received_power_dbm(params, 1.0) == NEG_INF_DBM


def test_far_field_exponential_law():
    params = OpticalLinkParams()
    c = params.extinction_per_m
    rng = random.Random(21)
    for _ in range(200):
        d = rng.uniform(10.0, 300.0)
        delta = rng.uniform(0.1, 50.0)
        diff = received_power_dbm(params, d + delta) - received_power_dbm(params, d)
        expected = -DB_PER_NEPER * c * delta - 20.0 * math.log10((d + delta) / d)
        assert diff == pytest.approx(expected, abs=1e-9)


def test_received_power_non_increasing_everywhere():
    rng = random.Random(33)
    for _ in range(300):
        params = OpticalLinkParams(
            transmit_power_mw=rng.uniform(1.0, 1000.0),
            aperture_area_m2=rng.uniform(1e-4, 1e-2),
            divergence_half_angle_deg=rng.uniform(0.1, 10.0),
            extinction_per_m=rng.uniform(0.0, 2.5),
            misalignment_beta_deg=rng.uniform(0.0, 89.0),
        )
        d = rng.uniform(0.1, 200.0)
        step = rng.uniform(0.01, 50.0)
        assert received_power_dbm(params, d + step) <= received_power_dbm(params, d)


def test_strictly_decreasing_beyond_capture_cap():
    params = OpticalLinkParams()
    # cap region ends near 4.3 m for the reference aperture and 0.25 deg half-angle
    for d in (5.0, 10.0, 40.0, 80.0):
        assert received_power_dbm(params, d + 1.0) < received_power_dbm(params, d)


def test_decreasing_in_extinction_and_misalignment():
    rng = random.Random(41)
    for _ in range(200):
        d = rng.uniform(5.0, 150.0)
        c1 = rng.uniform(0.0, 1.0)
        c2 = c1 + rng.uniform(0.01, 1.0)
        p_c1 = received_power_dbm(OpticalLinkParams(extinction_per_m=c1), d)
        p_c2 = received_power_dbm(OpticalLinkParams(extinction_per_m=c2), d)
        assert p_c2 < p_c1
        b1 = rng.uniform(0.0, 88.0)
        b2 = b1 + rng.uniform(0.5, 89.0 - b1)
        p_b1 = received_power_dbm(OpticalLinkParams(misalignment_beta_deg=b1), d)
        p_b2 = received_power_dbm(OpticalLinkParams(misalignment_beta_deg=b2), d)
        assert p_b2 < p_b1


def test_max_range_anchor_clear_ocean():
    r = optical_max_range(make_link("optical", water_type=WaterType.CLEAR_OCEAN), -53.0)
    assert abs(r - 90.0) <= 18.0  # 90 m within 20%


def test_power_at_max_range_equals_sensitivity():
    params = make_link("optical", water_type=WaterType.CLEAR_OCEAN)
    r = optical_max_range(params, -53.0, tol_m=1e-6)
    assert received_power_dbm(params, r) == pytest.approx(-53.0, abs=1e-4)


def test_max_range_decreasing_in_misalignment():
    ranges = [
        optical_max_range(OpticalLinkParams(misalignment_beta_deg=b), -53.0)
        for b in (0.0, 15.0, 30.0, 45.0)
    ]
    assert all(a > b for a, b in zip(ranges, ranges[1:]))


def test_max_range_decreasing_in_turbidity():
    ranges = [optical_max_range(make_link("optical", water_type=w), -53.0) for w in WaterType]
    assert all(a > b for a, b in zip(ranges, ranges[1:]))


def test_max_range_solver_inversion():
    params = OpticalLinkParams()
    sensitivity = received_power_dbm(params, 60.0)
    assert optical_max_range(params, sensitivity) == pytest.approx(60.0, abs=0.02)


def test_fully_misaligned_link_has_no_range():
    with pytest.raises(NoSolution):
        optical_max_range(OpticalLinkParams(misalignment_beta_deg=90.0), -53.0)


def test_sweep_matches_scalar():
    params = make_link("optical", water_type=WaterType.COASTAL, misalignment_beta_deg=20.0)
    values = sweep_received_power(params, 0.5, 1.5, 60)
    for i, v in enumerate(values):
        assert v == received_power_dbm(params, 0.5 + i * 1.5)


def test_domain_and_param_validation():
    with pytest.raises(DomainError):
        received_power_dbm(OpticalLinkParams(), 0.0)
    for name in ("transmit_power_mw", "aperture_area_m2"):
        for value in (0, -1):
            with pytest.raises(DomainError, match=f"^{name} must be positive: {value}$"):
                OpticalLinkParams(**{name: value})
    with pytest.raises(DomainError):
        OpticalLinkParams(divergence_half_angle_deg=90.0)
    for beta in (91.0, 90.000001, -1e-9):
        with pytest.raises(DomainError, match="misalignment must be in"):
            OpticalLinkParams(misalignment_beta_deg=beta)
    with pytest.raises(DomainError):
        OpticalLinkParams(extinction_per_m=-0.1)


def test_capture_beyond_the_float_range_stays_defined():
    # a half-angle whose beam footprint underflows to 0 gets the 0 dB cap;
    # an aperture whose capture ratio underflows receives nothing
    narrow = OpticalLinkParams(divergence_half_angle_deg=1e-320, extinction_per_m=0.0)
    assert received_power_dbm(narrow, 1.0) == 10.0 * math.log10(250.0)
    wide = OpticalLinkParams(aperture_area_m2=5e-324, divergence_half_angle_deg=89.0)
    assert received_power_dbm(wide, 1.0) == NEG_INF_DBM
