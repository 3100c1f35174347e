"""Acceptance gate: one test per criterion, each printing a pass/fail line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines as they execute.
"""

import random
import time
from contextlib import contextmanager

import pytest

from iout_wakeup.acoustic import (
    AcousticLinkParams,
    acoustic_max_range,
    received_power_density_dbm,
)
from iout_wakeup.cli import main
from iout_wakeup.core import Position3D, dbm_to_linear, linear_to_dbm
from iout_wakeup.energy import (
    ACOUSTIC_ENERGY,
    DEFAULT_ENERGY,
    WakePolicy,
    active_charge_ratio,
    lifetime_hours,
)
from iout_wakeup.mi import MiLinkParams, mi_max_range
from iout_wakeup.mi import received_power_dbm as mi_rx
from iout_wakeup.optical import (
    OpticalLinkParams,
    WaterType,
    optical_max_range,
)
from iout_wakeup.optical import received_power_dbm as optical_rx
from iout_wakeup.sim import (
    Buoy,
    SimConfig,
    Uav,
    WakeRequest,
    make_link,
    make_node,
    run,
    simulate_lifetime,
)


@contextmanager
def criterion(number, text):
    try:
        yield
    except BaseException:
        print(f"[criterion {number}] FAIL: {text}")
        raise
    print(f"[criterion {number}] PASS: {text}")


def _cli_max_range(capsys, argv):
    assert main(argv) == 0
    line = capsys.readouterr().out.strip().splitlines()[-1]
    assert line.startswith("max_range_m=")
    return float(line.split("=", 1)[1])


def test_criterion_1_acoustic_range_anchors_via_cli(tmp_path, capsys):
    with criterion(1, "CLI acoustic max range 260 m +/- 10% at 8 kHz, 190 m +/- 10% at 48 kHz, < 1 s each"):
        t0 = time.perf_counter()
        r8 = _cli_max_range(capsys, [
            "sweep-range", "--tech", "acoustic", "--freq-khz", "8", "--sl-db", "190",
            "--sensitivity-dbm", "-10", "--out", str(tmp_path / "a8.csv"),
        ])
        t8 = time.perf_counter() - t0
        t0 = time.perf_counter()
        r48 = _cli_max_range(capsys, [
            "sweep-range", "--tech", "acoustic", "--freq-khz", "48", "--sl-db", "190",
            "--sensitivity-dbm", "-10", "--out", str(tmp_path / "a48.csv"),
        ])
        t48 = time.perf_counter() - t0
        assert abs(r8 - 260.0) <= 26.0, r8
        assert abs(r48 - 190.0) <= 19.0, r48
        assert t8 < 1.0 and t48 < 1.0, (t8, t48)


def test_criterion_2_acoustic_model_self_consistency():
    with criterion(2, "received density at both range anchors equals -10 dBm +/- 1 dB"):
        p8 = received_power_density_dbm(AcousticLinkParams(frequency_khz=8.0), 260.0)
        p48 = received_power_density_dbm(AcousticLinkParams(frequency_khz=48.0), 190.0)
        assert abs(p8 - (-10.0)) <= 1.0, p8
        assert abs(p48 - (-10.0)) <= 1.0, p48


def test_criterion_3_optical_range_anchor_and_orderings():
    with criterion(3, "optical max range 90 m +/- 20%; decreasing in beta and turbidity"):
        r = optical_max_range(make_link("optical", water_type=WaterType.CLEAR_OCEAN), -53.0)
        assert abs(r - 90.0) <= 18.0, r
        beta_ranges = [
            optical_max_range(OpticalLinkParams(misalignment_beta_deg=b), -53.0)
            for b in (0.0, 15.0, 30.0, 45.0)
        ]
        assert all(a > b for a, b in zip(beta_ranges, beta_ranges[1:])), beta_ranges
        water_ranges = [
            optical_max_range(make_link("optical", water_type=w), -53.0) for w in WaterType
        ]
        assert all(a > b for a, b in zip(water_ranges, water_ranges[1:])), water_ranges


def test_criterion_4_mi_anchors():
    with criterion(4, "mi max range 44 m +/- 20%; exact -60 dB/decade; beta 45 < beta 0"):
        params = MiLinkParams()
        r0 = mi_max_range(params, -69.0)
        assert abs(r0 - 44.0) <= 8.8, r0
        rng = random.Random(61)
        for _ in range(200):
            d = rng.uniform(params.reference_distance_m, 90.0)
            drop = mi_rx(params, 10.0 * d) - mi_rx(params, d)
            assert abs(drop + 60.0) < 1e-9, drop
        r45 = mi_max_range(MiLinkParams(misalignment_beta_deg=45.0), -69.0)
        assert r45 < r0, (r45, r0)


def test_criterion_5_lifetime_orderings_and_exact_values():
    with criterion(5, "policy ordering for all profiles; acoustic no-wake-up 1900 h exact; DC(5)/OD(1) charge ratio 5 exact"):
        for profile in DEFAULT_ENERGY.values():
            no_wu = lifetime_hours(profile, WakePolicy.no_wakeup())
            dc5 = lifetime_hours(profile, WakePolicy.duty_cycle(5.0))
            od1 = lifetime_hours(profile, WakePolicy.on_demand(1.0))
            assert no_wu < dc5 < od1, (no_wu, dc5, od1)
        assert lifetime_hours(ACOUSTIC_ENERGY, WakePolicy.no_wakeup()) == 1900.0
        ratio = active_charge_ratio(WakePolicy.duty_cycle(5.0), WakePolicy.on_demand(1.0))
        assert ratio == 5.0


def test_criterion_6_simulator_matches_closed_form():
    with criterion(6, "simulate_lifetime within 1% of closed form at rates {0, 1, 5, 3600/t_a}; sweep < 10 s"):
        t0 = time.perf_counter()
        for tech, profile in DEFAULT_ENERGY.items():
            always = 3600.0 / profile.active_duration_s
            for rate, horizon_h in ((0.0, 1.0), (1.0, 2.0), (5.0, 2.0), (always, 0.5)):
                simulated = simulate_lifetime(make_node(tech), rate, horizon_h)
                expected = lifetime_hours(profile, WakePolicy.on_demand(rate))
                assert abs(simulated - expected) <= 0.01 * expected, (tech, rate, simulated, expected)
        elapsed = time.perf_counter() - t0
        assert elapsed < 10.0, elapsed


def _latency_report(depth_m):
    # sensitivities and extinction relaxed so every wake succeeds; latency
    # depends only on geometry and propagation speed
    nodes = [
        make_node("acoustic", address=1, depth_m=depth_m),
        make_node("optical", address=2, depth_m=depth_m, sensitivity_dbm=-80.0,
                  link_params=OpticalLinkParams(extinction_per_m=0.0)),
        make_node("mi", address=3, depth_m=depth_m, sensitivity_dbm=-120.0),
    ]
    config = SimConfig(
        uav=Uav(Position3D(0.0, 0.0, -10.0), rf_range_m=100.0),
        buoys=[Buoy(Position3D(0.0, 0.0, 0.0))],
        nodes=nodes,
        wake_requests=[WakeRequest(0.0, a) for a in (1, 2, 3)],
        horizon_s=10.0,
    )
    return run(config)


def test_criterion_7_wake_latencies():
    with criterion(7, "acoustic 100 m latency 0.0667 s +/- RF delay; optical and mi < 1 us; ordering at equal geometry"):
        rf_delay_s = 10.0 / 3.0e8
        assert rf_delay_s < 1e-6
        report = _latency_report(100.0)
        lat = {a: report.nodes[a].wake_latencies_s[0] for a in (1, 2, 3)}
        assert lat[1] == pytest.approx(rf_delay_s + 100.0 / 1500.0, abs=2e-9)
        assert abs(lat[1] - 0.0667) < 5e-5
        assert lat[2] < 1e-6 and lat[3] < 1e-6
        for depth in (50.0, 100.0, 200.0):
            sub = _latency_report(depth)
            acoustic_lat = sub.nodes[1].wake_latencies_s[0]
            optical_lat = sub.nodes[2].wake_latencies_s[0]
            mi_lat = sub.nodes[3].wake_latencies_s[0]
            assert optical_lat == mi_lat
            assert acoustic_lat > optical_lat


def _random_acoustic(rng):
    return AcousticLinkParams(
        source_level_db=rng.uniform(160.0, 210.0),
        frequency_khz=rng.uniform(1.0, 100.0),
        spreading_exponent=rng.choice([10.0, 15.0, 20.0]),
    )


def _random_optical(rng):
    return OpticalLinkParams(
        transmit_power_mw=rng.uniform(10.0, 1000.0),
        aperture_area_m2=rng.uniform(1e-4, 1e-2),
        divergence_half_angle_deg=rng.uniform(0.1, 5.0),
        extinction_per_m=rng.uniform(0.01, 2.5),
        misalignment_beta_deg=rng.uniform(0.0, 85.0),
    )


def _random_mi(rng):
    return MiLinkParams(
        transmit_power_mw=rng.uniform(10.0, 1000.0),
        turns_tx=rng.randint(5, 60),
        turns_rx=rng.randint(5, 60),
        coil_radius_tx_m=rng.uniform(0.1, 1.0),
        coil_radius_rx_m=rng.uniform(0.1, 1.0),
        misalignment_beta_deg=rng.uniform(0.0, 85.0),
    )


def test_criterion_8_property_suites(tmp_path):
    with criterion(8, "monotone links (1000 draws), solver inversion, dBm round trip, no spurious wakes, exact charge, byte-identical CSV"):
        rng = random.Random(4242)
        for _ in range(1000):
            ap = _random_acoustic(rng)
            d = rng.uniform(1.0, 2000.0)
            step = rng.uniform(0.5, 500.0)
            assert received_power_density_dbm(ap, d + step) < received_power_density_dbm(ap, d)
            op = _random_optical(rng)
            d = rng.uniform(0.1, 200.0)
            step = rng.uniform(0.1, 50.0)
            assert optical_rx(op, d + step) <= optical_rx(op, d)
            mp = _random_mi(rng)
            d = rng.uniform(mp.reference_distance_m, 150.0)
            step = rng.uniform(0.1, 50.0)
            assert mi_rx(mp, d + step) < mi_rx(mp, d)

        # solver inversion consistent with its tolerance
        params = AcousticLinkParams()
        for sens in (-20.0, -10.0, 0.0, 10.0):
            d_star = acoustic_max_range(params, sens, tol_m=0.01)
            assert received_power_density_dbm(params, d_star - 0.01) >= sens
            assert received_power_density_dbm(params, d_star + 0.01) <= sens

        # dBm round-trip exactness
        for _ in range(500):
            p = rng.uniform(-200.0, 200.0)
            assert abs(linear_to_dbm(dbm_to_linear(p)) - p) < 1e-9

        # mismatched / out-of-range signals never change state
        mismatch = run(SimConfig(
            uav=Uav(Position3D(0, 0, -10.0), rf_range_m=100.0),
            buoys=[Buoy(Position3D(0, 0, 0.0))],
            nodes=[make_node("acoustic", address=1, depth_m=100.0),
                   make_node("acoustic", address=2, depth_m=400.0)],
            wake_requests=[WakeRequest(0.0, 2), WakeRequest(1.0, 9)],
            horizon_s=10.0,
        ))
        assert all(nr.wakes == 0 for nr in mismatch.nodes.values())
        assert all(nr.final_state == "sleep" for nr in mismatch.nodes.values())

        # exact charge conservation
        report = run(SimConfig(
            uav=Uav(Position3D(0, 0, -10.0), rf_range_m=100.0),
            buoys=[Buoy(Position3D(0, 0, 0.0))],
            nodes=[make_node("acoustic", address=1, depth_m=100.0)],
            wake_requests=[WakeRequest(0.0, 1), WakeRequest(5.0, 1)],
            horizon_s=50.0,
        ))
        nrep = report.nodes[1]
        initial = ACOUSTIC_ENERGY.battery_capacity_mah
        assert abs(initial - nrep.remaining_charge_mah - nrep.charge_consumed_mah) < 1e-9
        active_s = 2.0 * ACOUSTIC_ENERGY.active_duration_s
        sleep_s = 50.0 - active_s
        expected = (
            ACOUSTIC_ENERGY.active_current_ma * active_s / 3600.0
            + ACOUSTIC_ENERGY.sleep_current_ma * sleep_s / 3600.0
        )
        assert nrep.charge_consumed_mah == pytest.approx(expected, abs=1e-12)

        # byte-identical CSV across repeated CLI runs
        for prefix in ("p1", "p2"):
            assert main(["simulate", "--scenario", "optical-fig4",
                         "--out", str(tmp_path / prefix)]) == 0
        assert (tmp_path / "p1_events.csv").read_bytes() == (tmp_path / "p2_events.csv").read_bytes()
        assert (tmp_path / "p1_summary.csv").read_bytes() == (tmp_path / "p2_summary.csv").read_bytes()
        for name in ("s1.csv", "s2.csv"):
            assert main(["sweep-range", "--tech", "acoustic", "--out", str(tmp_path / name)]) == 0
        assert (tmp_path / "s1.csv").read_bytes() == (tmp_path / "s2.csv").read_bytes()
