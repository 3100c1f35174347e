"""Magnetic-induction link: 1/d^6 law, coil scaling, misalignment, max range."""

import math
import random

import pytest

from iout_wakeup.core import NEG_INF_DBM
from iout_wakeup.errors import DomainError
from iout_wakeup.mi import (
    MiLinkParams,
    mi_max_range,
    mi_path_gain_db,
    received_power_dbm,
    sweep_received_power,
)

DOUBLE_DISTANCE_DB = 18.06179973983887   # 60*log10(2)
DOUBLE_RADIUS_DB = 9.030899869919436     # 30*log10(2)


def test_distance_doubling_law():
    rng = random.Random(17)
    for _ in range(200):
        params = MiLinkParams(
            transmit_power_mw=rng.uniform(1.0, 1000.0),
            turns_tx=rng.randint(1, 100),
            turns_rx=rng.randint(1, 100),
            coil_radius_tx_m=rng.uniform(0.05, 1.0),
            coil_radius_rx_m=rng.uniform(0.05, 1.0),
            misalignment_beta_deg=rng.uniform(0.0, 89.0),
            calibration_gain_db=rng.uniform(-30.0, 10.0),
        )
        d = rng.uniform(params.reference_distance_m, 200.0)
        drop = mi_path_gain_db(params, 2.0 * d) - mi_path_gain_db(params, d)
        assert drop == pytest.approx(-DOUBLE_DISTANCE_DB, abs=1e-9)


def test_exact_minus_60_db_per_decade():
    params = MiLinkParams()
    for d in (0.5, 1.0, 5.0, 25.0, 90.0):
        drop = received_power_dbm(params, 10.0 * d) - received_power_dbm(params, d)
        assert abs(drop + 60.0) < 1e-9


def test_orthogonal_coils_are_sentinel():
    params = MiLinkParams(misalignment_beta_deg=90.0)
    assert mi_path_gain_db(params, 10.0) == NEG_INF_DBM
    assert received_power_dbm(params, 10.0) == NEG_INF_DBM


def test_receive_coil_radius_doubling_gain():
    base = MiLinkParams()
    doubled = MiLinkParams(coil_radius_rx_m=1.0)
    gain = received_power_dbm(doubled, 50.0) - received_power_dbm(base, 50.0)
    assert gain == pytest.approx(DOUBLE_RADIUS_DB, abs=1e-9)


def test_misalignment_60_degrees_costs_6db():
    aligned = MiLinkParams()
    tilted = MiLinkParams(misalignment_beta_deg=60.0)
    diff = received_power_dbm(tilted, 44.0) - received_power_dbm(aligned, 44.0)
    assert diff == pytest.approx(-6.020599913279624, abs=1e-9)


def test_received_power_even_and_non_increasing_in_beta():
    params0 = MiLinkParams(misalignment_beta_deg=0.0)
    prev = received_power_dbm(params0, 20.0)
    for beta in (10.0, 25.0, 45.0, 70.0, 89.0):
        cur = received_power_dbm(MiLinkParams(misalignment_beta_deg=beta), 20.0)
        assert cur < prev
        prev = cur


def test_calibrated_anchor_at_sensitivity():
    params = MiLinkParams()
    r = mi_max_range(params, -69.0, tol_m=1e-5)
    assert abs(r - 44.0) <= 8.8  # 44 m within 20%
    assert received_power_dbm(params, r) == pytest.approx(-69.0, abs=1e-3)


def test_power_44m_vs_88m_doubling():
    params = MiLinkParams()
    diff = received_power_dbm(params, 88.0) - received_power_dbm(params, 44.0)
    assert diff == pytest.approx(-DOUBLE_DISTANCE_DB, abs=1e-9)


def test_max_range_decreasing_in_misalignment():
    r0 = mi_max_range(MiLinkParams(), -69.0)
    r45 = mi_max_range(MiLinkParams(misalignment_beta_deg=45.0), -69.0)
    assert r45 < r0


def test_max_range_increasing_in_coil_radius():
    small = mi_max_range(MiLinkParams(), -69.0)
    large = mi_max_range(MiLinkParams(coil_radius_tx_m=0.75, coil_radius_rx_m=0.75), -69.0)
    assert large > small


def test_six_db_calibration_scales_range_by_tenth_decade():
    base = MiLinkParams()
    boosted = MiLinkParams(calibration_gain_db=base.calibration_gain_db + 6.0)
    r_base = mi_max_range(base, -69.0, tol_m=1e-6)
    r_boost = mi_max_range(boosted, -69.0, tol_m=1e-6)
    assert r_boost / r_base == pytest.approx(1.2589254117941673, rel=1e-6)


def test_max_range_solver_inversion():
    params = MiLinkParams()
    sensitivity = received_power_dbm(params, 30.0)
    assert mi_max_range(params, sensitivity) == pytest.approx(30.0, abs=0.02)


def test_sweep_matches_scalar():
    params = MiLinkParams(misalignment_beta_deg=30.0)
    values = sweep_received_power(params, 1.0, 0.5, 40)
    for i, v in enumerate(values):
        assert v == received_power_dbm(params, 1.0 + i * 0.5)


def test_domain_below_coil_scale_rejected():
    params = MiLinkParams()
    with pytest.raises(DomainError):
        mi_path_gain_db(params, 0.4)
    # valid from the coil scale onward, negative in the far field
    assert mi_path_gain_db(params, params.reference_distance_m) > mi_path_gain_db(params, 10.0)
    assert mi_path_gain_db(params, 10.0) < 0.0


def test_param_validation():
    with pytest.raises(DomainError):
        MiLinkParams(turns_tx=0)
    with pytest.raises(DomainError):
        MiLinkParams(coil_radius_rx_m=-0.5)
    positive = ("transmit_power_mw", "frequency_khz", "permeability_h_per_m", "turns_tx",
                "turns_rx", "coil_radius_tx_m", "coil_radius_rx_m",
                "unit_coil_resistance_ohm_per_m")
    for name in positive:
        for value in (0, -1):
            with pytest.raises(DomainError, match=f"^{name} must be positive: {value}$"):
                MiLinkParams(**{name: value})
    for beta in (120.0, 90.000001, -1e-9):
        with pytest.raises(DomainError, match="misalignment must be in"):
            MiLinkParams(misalignment_beta_deg=beta)


@pytest.mark.parametrize(
    "fields",
    [
        {"turns_tx": 10**307},  # the int product does not fit a float
        {"turns_tx": 10**200, "turns_rx": 10**200},
        {"coil_radius_tx_m": 1e300},  # the cube overflows
        {"coil_radius_tx_m": 1e60, "coil_radius_rx_m": 1e60},  # the product overflows
        {"turns_tx": 10**307, "misalignment_beta_deg": 90.0},
    ],
)
def test_coil_factor_beyond_the_float_range_rejected(fields):
    with pytest.raises(DomainError, match="beyond the float range"):
        MiLinkParams(**fields)


@pytest.mark.parametrize("turns", [(30, 30), (2**26, 2**26 - 1), (3, 2**50)])
def test_coil_factor_below_2_53_keeps_its_bits(turns):
    params = MiLinkParams(turns_tx=turns[0], turns_rx=turns[1], coil_radius_tx_m=0.37)
    factor = turns[0] * turns[1] * 0.37**3 * 0.5**3 * 1.0 * 1.0
    assert params.geometry_db == 10.0 * math.log10(factor)
