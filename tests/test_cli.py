"""CLI surface: flags, CSV files, exit codes, error line format."""

import contextlib
import io
import json
import os
import re
import subprocess
import sys
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import iout_wakeup
from iout_wakeup.cli import main
from iout_wakeup.core import TECHNOLOGIES
from iout_wakeup.scenario import fmt6
from iout_wakeup.sim import make_link

ERROR_LINE = re.compile(r"^error: \d: .+$")


def _stdout_lines(capsys):
    return capsys.readouterr().out.strip().splitlines()


def _max_range(capsys):
    line = _stdout_lines(capsys)[-1]
    assert line.startswith("max_range_m=")
    return float(line.split("=", 1)[1])


def test_sweep_range_acoustic_8khz(tmp_path, capsys):
    out = tmp_path / "acoustic.csv"
    rc = main([
        "sweep-range", "--tech", "acoustic", "--freq-khz", "8", "--sl-db", "190",
        "--sensitivity-dbm", "-10", "--out", str(out),
    ])
    assert rc == 0
    assert abs(_max_range(capsys) - 260.0) <= 26.0
    lines = out.read_text().splitlines()
    assert lines[0] == "distance_m,rx_power_dbm"
    distances = [float(row.split(",")[0]) for row in lines[1:]]
    assert distances == sorted(distances)
    assert len(set(distances)) == len(distances)
    powers = [float(row.split(",")[1]) for row in lines[1:]]
    assert all(a > b for a, b in zip(powers, powers[1:]))


def test_sweep_range_mi_calibrated_default(capsys):
    rc = main(["sweep-range", "--tech", "mi", "--beta-deg", "0", "--sensitivity-dbm", "-69"])
    assert rc == 0
    assert abs(_max_range(capsys) - 44.0) <= 8.8


def test_sweep_range_optical_anchor(capsys):
    rc = main(["sweep-range", "--tech", "optical", "--sensitivity-dbm", "-53"])
    assert rc == 0
    assert abs(_max_range(capsys) - 90.0) <= 18.0


def test_sweep_range_bad_bracket_exits_2(capsys):
    rc = main(["sweep-range", "--tech", "acoustic", "--dmin", "100", "--dmax", "10"])
    assert rc == 2
    err = capsys.readouterr().err.strip()
    assert ERROR_LINE.match(err)


def test_sweep_range_no_solution_exits_3(capsys):
    rc = main(["sweep-range", "--tech", "acoustic", "--sensitivity-dbm", "-500"])
    assert rc == 3
    err = capsys.readouterr().err.strip()
    assert err.startswith("error: 3: ")


def test_sweep_range_unknown_tech_exits_2(capsys):
    rc = main(["sweep-range", "--tech", "sonar"])
    assert rc == 2
    assert ERROR_LINE.match(capsys.readouterr().err.strip())


# Every float flag of sweep-range, under each technology that reads it.
_SWEEP_FLOAT_FLAGS = {
    "acoustic": ("--sl-db", "--spreading", "--density-kg-m3", "--sound-speed-m-s", "--freq-khz"),
    "optical": (
        "--ptx-mw", "--aperture-m2", "--divergence-half-deg", "--extinction-per-m", "--beta-deg",
    ),
    "mi": (
        "--freq-khz", "--ptx-mw", "--beta-deg", "--radius-tx-m", "--radius-rx-m", "--cal-gain-db",
    ),
}
_SWEEP_SHARED_FLOAT_FLAGS = ("--sensitivity-dbm", "--dmin", "--dmax", "--step")


@pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
@pytest.mark.parametrize(
    "tech,flag",
    [
        (tech, flag)
        for tech, flags in _SWEEP_FLOAT_FLAGS.items()
        for flag in _SWEEP_SHARED_FLOAT_FLAGS + flags
    ],
)
def test_sweep_range_non_finite_flag_is_an_error(tech, flag, value, capsys):
    _assert_one_error_line(main(["sweep-range", "--tech", tech, f"{flag}={value}"]), capsys)


_LIFETIME_FLOAT_FLAGS = (
    "--rate-per-hour", "--rate-min", "--rate-max", "--rate-step",
    "--capacity-mah", "--active-ma", "--sleep-ma", "--active-s",
)


@pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
@pytest.mark.parametrize("flag", _LIFETIME_FLOAT_FLAGS)
def test_lifetime_non_finite_flag_is_an_error(flag, value, capsys):
    _assert_one_error_line(main(["lifetime", "--tech", "acoustic", f"{flag}={value}"]), capsys)


def _assert_one_error_line(rc, capsys):
    captured = capsys.readouterr()
    assert rc in (2, 3)
    assert "Traceback" not in captured.err
    lines = captured.err.splitlines()
    assert len(lines) == 1
    assert ERROR_LINE.match(lines[0])
    assert captured.out == ""
    return lines[0]


@settings(max_examples=150, deadline=None)
@given(
    data=st.data(),
    value=st.one_of(st.floats().map(repr), st.sampled_from(["1e400", "-0", "1e-320", "", "x"])),
)
def test_any_float_flag_value_exits_cleanly(data, value):
    tech = data.draw(st.sampled_from(sorted(_SWEEP_FLOAT_FLAGS)))
    command, flag = data.draw(st.sampled_from([
        *(("sweep-range", flag) for flag in _SWEEP_SHARED_FLOAT_FLAGS + _SWEEP_FLOAT_FLAGS[tech]),
        *(("lifetime", flag) for flag in _LIFETIME_FLOAT_FLAGS),
    ]))
    out, err = io.StringIO(), io.StringIO()
    with tempfile.TemporaryDirectory() as tmp:
        csv_path = os.path.join(tmp, "sweep.csv")
        argv = [command, "--tech", tech, f"{flag}={value}"]
        if command == "sweep-range":
            argv += ["--out", csv_path]
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            rc = main(argv)
        rows = out.getvalue().splitlines()
        if rc == 0 and command == "sweep-range":
            with open(csv_path, encoding="utf-8") as fh:
                rows += fh.read().splitlines()
    lines = err.getvalue().splitlines()
    assert rc in (0, 2, 3, 4)
    assert len(lines) == (rc != 0)
    assert all(ERROR_LINE.match(line) for line in lines)
    # No output field is NaN and no lifetime is infinite (-inf dBm is the
    # zero-power sentinel).
    fields = [row.replace("=", ",").split(",") for row in rows]
    assert not any("nan" in row for row in fields)
    if command == "lifetime":
        assert not any(row[1] == "inf" for row in fields[1:])


@pytest.mark.parametrize(
    "argv",
    [
        ["sweep-range", "--tech", "acoustic", "--freq-khz", "1e200"],
        ["sweep-range", "--tech", "acoustic", "--density-kg-m3", "1e-200",
         "--sound-speed-m-s", "1e-200"],
        ["sweep-range", "--tech", "acoustic", "--density-kg-m3", "1e200",
         "--sound-speed-m-s", "1e200"],
        ["sweep-range", "--tech", "mi", "--turns-tx", "1" + "0" * 307],
        ["sweep-range", "--tech", "mi", "--radius-tx-m", "1e300", "--dmax", "2e300", "--step", "1e299"],
        ["lifetime", "--tech", "acoustic", "--capacity-mah", "1e308", "--rate-per-hour", "1"],
        ["lifetime", "--tech", "acoustic", "--active-ma", "1e308", "--rate-per-hour", "3600"],
    ],
    ids=["acoustic-absorption", "impedance-underflow", "impedance-overflow", "mi-turns",
         "mi-radius", "lifetime-capacity", "lifetime-draw"],
)
def test_results_beyond_the_float_range_exit_2(argv, capsys):
    rc = main(argv)
    _assert_one_error_line(rc, capsys)
    assert rc == 2


@pytest.mark.parametrize(
    "argv,detail",
    [
        (["--tech", "acoustic", "--turns-tx", "3"], "turns_tx is not a field of the acoustic link"),
        (["--tech", "acoustic", "--water", "harbor"],
         "water_type is not a field of the acoustic link"),
        (["--tech", "optical", "--density-kg-m3", "1000"],
         "density_kg_m3 is not a field of the optical link"),
        (["--tech", "mi", "--spreading", "10"], "spreading_exponent is not a field of the mi link"),
        (["--tech", "optical", "--water", "harbor", "--extinction-per-m", "0.1"],
         "give water_type or extinction_per_m, not both"),
        (["--tech", "acoustic", "--dmax", "1e300"], "grid of more than 1000000 points"),
        # names are checked before values, medium names too
        (["--tech", "acoustic", "--density-kg-m3", "-1", "--turns-tx", "3"],
         "turns_tx is not a field of the acoustic link"),
    ],
    ids=[f"argv{i}" for i in range(7)],
)
def test_sweep_range_rejected_flags_exit_2(argv, detail, capsys):
    rc = main(["sweep-range", *argv])
    assert rc == 2
    assert _assert_one_error_line(rc, capsys) == f"error: 2: {detail}"


# the lines the CLI writes itself; argparse's own wording for other faults
# varies with the Python version
@pytest.mark.parametrize(
    "argv,line",
    [
        (["sweep-range", "--tech", "acoustic", "--step", "0"],
         "error: 2: step must be positive: 0.0"),
        (["sweep-range", "--tech", "acoustic", "--dmin", "5", "--dmax", "5"],
         "error: 2: need dmin < dmax: 5.0 >= 5.0"),
        (["lifetime", "--tech", "acoustic", "--rate-step", "0"],
         "error: 2: need rate-min <= rate-max and positive rate-step"),
        (["lifetime", "--tech", "acoustic", "--rate-min", "5", "--rate-max", "1"],
         "error: 2: need rate-min <= rate-max and positive rate-step"),
        (["simulate", "--scenario", "no-such", "--out", "X"],
         "error: 2: no such scenario file or preset: no-such"),
        (["sweep-range"], "error: 2: the following arguments are required: --tech"),
        ([], "error: 2: the following arguments are required: command"),
    ],
    ids=["zero-step", "empty-range", "zero-rate-step", "reversed-rates", "unknown-scenario",
         "no-tech", "no-command"],
)
def test_cli_faults_exit_2_with_their_line(argv, line, tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)  # no file here is named like the scenario
    rc = main(argv)
    assert rc == 2
    assert _assert_one_error_line(rc, capsys) == line


@pytest.mark.parametrize(
    "argv",
    [["simulate", "--scenario", "acoustic-fig3", "--out", "fig3"], ["sweep-range"]],
    ids=["simulate", "fault"],
)
def test_python_m_iout_wakeup_is_main(argv, tmp_path, monkeypatch, capsys):
    child_dir, main_dir = tmp_path / "child", tmp_path / "main"
    child_dir.mkdir()
    main_dir.mkdir()
    # the child imports the package this test imports
    env = dict(os.environ, PYTHONPATH=str(Path(iout_wakeup.__file__).resolve().parents[1]))
    child = subprocess.run([sys.executable, "-m", "iout_wakeup", *argv], cwd=child_dir, env=env,
                           capture_output=True, text=True, check=False)
    monkeypatch.chdir(main_dir)
    rc = main(argv)
    out, err = capsys.readouterr()
    assert (child.returncode, child.stdout, child.stderr) == (rc, out, err)
    written = sorted(os.listdir(main_dir))
    assert sorted(os.listdir(child_dir)) == written
    for name in written:
        assert (child_dir / name).read_bytes() == (main_dir / name).read_bytes()


# start 1 and step 1, so the stop is the last point of the grid
@pytest.mark.parametrize(
    "stop,rc",
    [("10", 0), ("11", 2), ("10.99999999999", 2)],
    ids=["10-points", "11-points", "slack-rounds-up-to-11-points"],
)
@pytest.mark.parametrize(
    "argv",
    [
        ["sweep-range", "--tech", "acoustic", "--dmin", "1", "--step", "1", "--dmax"],
        ["lifetime", "--tech", "acoustic", "--policy", "od", "--rate-min", "1",
         "--rate-step", "1", "--rate-max"],
    ],
    ids=["sweep-range", "lifetime"],
)
def test_grids_hold_at_most_max_points(argv, stop, rc, monkeypatch, tmp_path, capsys):
    monkeypatch.setattr("iout_wakeup.cli.MAX_POINTS", 10)
    out = tmp_path / "grid.csv"
    code = main([*argv, stop, "--out", str(out)])
    assert code == rc
    if rc == 0:
        assert len(out.read_text().splitlines()) == 1 + 10
    else:
        _assert_one_error_line(code, capsys)


@pytest.mark.parametrize(
    "tech,argv,fields",
    [
        ("acoustic", ["--sl-db", "185", "--spreading", "15", "--freq-khz", "12"],
         {"source_level_db": 185.0, "spreading_exponent": 15.0, "frequency_khz": 12.0}),
        ("acoustic", ["--density-kg-m3", "1100", "--sound-speed-m-s", "1450"],
         {"density_kg_m3": 1100.0, "sound_speed_m_s": 1450.0}),
        ("optical", ["--ptx-mw", "100", "--aperture-m2", "0.002", "--divergence-half-deg", "0.5",
                     "--water", "coastal", "--beta-deg", "10"],
         {"transmit_power_mw": 100.0, "aperture_area_m2": 0.002,
          "divergence_half_angle_deg": 0.5, "water_type": "coastal",
          "misalignment_beta_deg": 10.0}),
        ("optical", ["--extinction-per-m", "0.2"], {"extinction_per_m": 0.2}),
        ("mi", ["--ptx-mw", "50", "--freq-khz", "60", "--turns-tx", "20", "--turns-rx", "25",
                "--radius-tx-m", "0.4", "--radius-rx-m", "0.3", "--cal-gain-db", "-2"],
         {"transmit_power_mw": 50.0, "frequency_khz": 60.0, "turns_tx": 20, "turns_rx": 25,
          "coil_radius_tx_m": 0.4, "coil_radius_rx_m": 0.3, "calibration_gain_db": -2.0}),
    ],
)
def test_sweep_range_link_flags_set_their_fields(tech, argv, fields, capsys):
    rc = main(["sweep-range", "--tech", tech, *argv])
    assert rc == 0
    link = make_link(tech, **fields)
    expected = link.max_range(link.default_sensitivity_dbm)
    assert _stdout_lines(capsys)[-1] == f"max_range_m={fmt6(expected)}"


def test_lifetime_no_wakeup_constant(capsys):
    rc = main(["lifetime", "--tech", "acoustic", "--policy", "nowu"])
    assert rc == 0
    lines = _stdout_lines(capsys)
    assert lines[0] == "tx_per_hour,lifetime_h,policy"
    values = {row.split(",")[1] for row in lines[1:]}
    assert values == {"1900"}


def test_lifetime_optical_on_demand_value(capsys):
    rc = main(["lifetime", "--tech", "optical", "--policy", "od", "--rate-per-hour", "1"])
    assert rc == 0
    row = _stdout_lines(capsys)[1]
    # 950 / ((1*3.6 + 3599*0.083) / 3600)
    assert row == "1,11312.6,on_demand"


def test_lifetime_dc_equals_od_at_equal_rate(tmp_path):
    out = tmp_path / "life.csv"
    rc = main(["lifetime", "--tech", "mi", "--rate-per-hour", "4", "--out", str(out)])
    assert rc == 0
    rows = out.read_text().splitlines()[1:]
    by_policy = {row.split(",")[2]: row.split(",")[1] for row in rows}
    assert by_policy["duty_cycle"] == by_policy["on_demand"]


def test_lifetime_sweep_rows_ordered(tmp_path):
    out = tmp_path / "sweep.csv"
    rc = main([
        "lifetime", "--tech", "acoustic", "--policy", "od",
        "--rate-min", "1", "--rate-max", "8", "--rate-step", "1", "--out", str(out),
    ])
    assert rc == 0
    rows = out.read_text().splitlines()[1:]
    rates = [float(r.split(",")[0]) for r in rows]
    lifetimes = [float(r.split(",")[1]) for r in rows]
    assert rates == sorted(rates) and len(set(rates)) == len(rates)
    assert all(a > b for a, b in zip(lifetimes, lifetimes[1:]))


def test_lifetime_energy_flags_override_the_profile(capsys):
    rc = main([
        "lifetime", "--tech", "optical", "--policy", "od", "--rate-per-hour", "2",
        "--capacity-mah", "100", "--active-ma", "4", "--sleep-ma", "0.1", "--active-s", "2",
    ])
    assert rc == 0
    # 100 / ((2*2*4 + (3600-4)*0.1) / 3600)
    assert _stdout_lines(capsys)[1] == "2,958.466,on_demand"


@pytest.mark.parametrize("policy", ["all", "nowu", "dc", "od"])
@pytest.mark.parametrize("tech", TECHNOLOGIES)
def test_lifetime_prints_the_bytes_out_writes(tech, policy, tmp_path, capsys):
    argv = ["lifetime", "--tech", tech, "--policy", policy, "--rate-max", "12", "--rate-step", "0.7"]
    assert main(argv) == 0
    printed = capsys.readouterr().out
    out = tmp_path / "lifetime.csv"
    assert main([*argv, "--out", str(out)]) == 0
    assert capsys.readouterr().out == ""
    assert out.read_bytes() == printed.encode()


def test_lifetime_overfull_rate_exits_2(capsys):
    rc = main(["lifetime", "--tech", "acoustic", "--policy", "od", "--rate-per-hour", "5000"])
    assert rc == 2
    assert ERROR_LINE.match(capsys.readouterr().err.strip())


# every policy holds its rate to one rule, though no_wakeup does not use it
@pytest.mark.parametrize(
    "rates,rate",
    [(["--rate-per-hour", "-1"], "-1.0"), (["--rate-min", "-5", "--rate-max", "1"], "-5.0")],
    ids=["rate", "rate-grid"],
)
def test_lifetime_no_wakeup_negative_rate_exits_2(rates, rate, capsys):
    rc = main(["lifetime", "--tech", "optical", "--policy", "nowu", *rates])
    assert rc == 2
    out, err = capsys.readouterr()
    assert out == "" and err == f"error: 2: rate must be non-negative: {rate}\n"


def test_simulate_preset(tmp_path, capsys):
    prefix = tmp_path / "fig3"
    rc = main(["simulate", "--scenario", "acoustic-fig3", "--out", str(prefix)])
    assert rc == 0
    events = (tmp_path / "fig3_events.csv").read_text().splitlines()
    summary = (tmp_path / "fig3_summary.csv").read_text().splitlines()
    assert events[0] == "time_s,actor,kind,detail"
    assert summary[0] == "address,wakes,charge_consumed_mah,mean_latency_s,failures"
    address, wakes, _, _, failures = summary[1].split(",")
    assert (address, wakes, failures) == ("1", "1", "0")


def test_simulate_mismatched_address(tmp_path):
    doc = {
        "buoys": [{"position": [0, 0, 0]}],
        "nodes": [{"address": 1, "position": [0, 0, 50], "tech": "acoustic"}],
        "wake_requests": [{"time_s": 0, "target_address": 2}],
        "horizon_s": 60.0,
    }
    path = tmp_path / "mismatch.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    rc = main(["simulate", "--scenario", str(path), "--out", str(tmp_path / "mm")])
    assert rc == 0
    summary = (tmp_path / "mm_summary.csv").read_text().splitlines()[1]
    address, wakes, _, _, failures = summary.split(",")
    assert (wakes, failures) == ("0", "1")


def test_simulate_empty_requests_pure_sleep_charge(tmp_path):
    doc = {
        "buoys": [{"position": [0, 0, 0]}],
        "nodes": [{"address": 1, "position": [0, 0, 50], "tech": "acoustic"}],
        "wake_requests": [],
        "horizon_s": 7200.0,
    }
    path = tmp_path / "idle.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    rc = main(["simulate", "--scenario", str(path), "--out", str(tmp_path / "idle")])
    assert rc == 0
    summary = (tmp_path / "idle_summary.csv").read_text().splitlines()[1]
    charge = float(summary.split(",")[2])
    assert charge == pytest.approx(0.015 * 7200.0 / 3600.0, rel=1e-5)


@pytest.mark.parametrize(
    "node,top,detail",
    [
        ({"position": [0, 0, -50]}, {}, "nodes[0]: node above surface"),
        ({"tech": "mi", "link": {"frequency_khz": -1}}, {},
         "nodes[0].link: frequency_khz must be positive"),
        ({"energy": {"active_ma": 0.001}}, {}, "nodes[0].energy: need active > sleep"),
        ({"sensitivity_dbm": float("nan")}, {}, "nodes[0]: sensitivity_dbm must be finite: nan"),
        ({}, {"horizon_s": float("nan")}, "scenario: horizon_s must be finite: nan"),
        ({}, {"horizon_s": 1e300}, "horizon must be positive and finite"),
        ({}, {"wake_requests": [{"time_s": float("inf"), "target_address": 1}]},
         "wake_requests[0]: time_s must be finite: inf"),
        ({}, {"uav": {"position": [0, 0, -10], "rf_range_m": float("-inf")}},
         "uav: rf_range_m must be finite: -inf"),
        ({}, {"uav": {"position": [0, 0, -10], "rf_range_m": 0}},
         "uav: rf range must be positive: 0.0"),
        ({"link": {"frequency_khz": 1e200}}, {},
         "nodes[0].link: absorption beyond the float range"),
        ({"tech": "mi", "link": {"turns_tx": 10**307}}, {},
         "nodes[0].link: coil factor"),
        ({}, {"medium": {"density_kg_m3": 1e-200, "sound_speed_m_s": 1e-200}},
         "nodes[0].link: impedance density_kg_m3*sound_speed_m_s is beyond the float range"),
        ({}, {"medium": {"density_kg_m3": 1e200, "sound_speed_m_s": 1e200}},
         "nodes[0].link: impedance density_kg_m3*sound_speed_m_s is beyond the float range"),
        ({}, {"buoys": [{"position": [0, 0, 0], "transmitters": ["acoustic", "acoustic"]}]},
         "buoys[0]: repeated transmitter technology"),
        ({}, {"buoys": [{"position": [0, 0, 5]}]}, "buoys[0]: buoy not at surface: z=5.0"),
        ({"address": 70000}, {}, "nodes[0]: address out of 16-bit range: 70000"),
        ({}, {"wake_requests": [{"time_s": -1, "target_address": 1}]},
         "wake_requests[0]: wake request before t=0: -1.0"),
        ({}, {"uav": {"position": [0, 0, 5]}}, "uav: uav not above surface: z=5.0"),
        ({}, {"buoys": [{"position": [0, 0, 0], "transmitters": ["laser"]}]},
         "buoys[0]: unknown transmitter technology: laser"),
        ({}, {"buoys": [{"position": [0, 0, 0], "transmitters": [["mi"], ["mi"]]}]},
         "buoys[0]: unknown transmitter technology: ['mi']"),
        ({}, {"nodes": [{"address": 1, "position": [0, 0, 50], "tech": "acoustic"},
                        {"address": 1, "position": [0, 0, 20], "tech": "mi"}]},
         "scenario: duplicate address: 1"),
    ],
    ids=[
        "node-above-surface", "link-domain", "energy-domain", "nan-sensitivity",
        "nan-horizon", "horizon-beyond-ns", "infinite-request-time", "infinite-rf-range",
        "zero-rf-range", "absorption-overflow", "coil-factor-overflow", "impedance-underflow",
        "impedance-overflow", "repeated-transmitter",
        "buoy-off-surface", "wide-address", "request-before-zero", "uav-below-surface",
        "unknown-transmitter", "unhashable-transmitter", "duplicate-address",
    ],
)
def test_simulate_invalid_scenario_exits_4(node, top, detail, tmp_path, capsys):
    doc = {
        "buoys": [{"position": [0, 0, 0]}],
        "nodes": [{"address": 1, "position": [0, 0, 50], "tech": "acoustic", **node}],
        **top,
    }
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    rc = main(["simulate", "--scenario", str(path), "--out", str(tmp_path / "bad")])
    assert rc == 4
    err = capsys.readouterr().err
    assert err.startswith("error: 4: ")
    assert detail in err
    assert len(err.splitlines()) == 1


def test_simulate_malformed_json_exits_2(tmp_path, capsys):
    path = tmp_path / "broken.json"
    path.write_text("{not json", encoding="utf-8")
    rc = main(["simulate", "--scenario", str(path), "--out", str(tmp_path / "x")])
    assert rc == 2
    assert capsys.readouterr().err.startswith("error: 2: ")


@pytest.mark.parametrize(
    "content",
    [
        # an int literal past the interpreter's 4300-digit conversion limit
        ('{"buoys": [{"position": [0, 0, 0]}], "nodes": [{"address": 1' + "0" * 5000
         + ', "position": [0, 0, 50], "tech": "acoustic"}]}').encode("ascii"),
        # nesting deeper than the decoder's recursion limit
        b"[" * 200_000,
        # Latin-1, not UTF-8
        '{"buoys": [{"position": [0, 0, 0]}], "nodes": [], "é": 1}'.encode("latin-1"),
    ],
    ids=["5001-digit-int", "deep-nesting", "not-utf8"],
)
def test_simulate_unreadable_scenario_exits_2(content, tmp_path, capsys):
    path = tmp_path / "unreadable.json"
    path.write_bytes(content)
    rc = main(["simulate", "--scenario", str(path), "--out", str(tmp_path / "x")])
    assert rc == 2
    err = capsys.readouterr().err
    assert err.startswith("error: 2: ")
    assert len(err.splitlines()) == 1


def test_simulate_missing_scenario_exits_2(tmp_path, capsys):
    rc = main(["simulate", "--scenario", "nowhere.json", "--out", str(tmp_path / "x")])
    assert rc == 2
    assert ERROR_LINE.match(capsys.readouterr().err.strip())


def test_csv_byte_identical_across_runs(tmp_path, capsys):
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    for out in (a, b):
        assert main(["sweep-range", "--tech", "optical", "--out", str(out)]) == 0
    assert a.read_bytes() == b.read_bytes()
    for prefix in ("r1", "r2"):
        assert main(["simulate", "--scenario", "mi-fig5", "--out", str(tmp_path / prefix)]) == 0
    assert (tmp_path / "r1_events.csv").read_bytes() == (tmp_path / "r2_events.csv").read_bytes()
    assert (tmp_path / "r1_summary.csv").read_bytes() == (tmp_path / "r2_summary.csv").read_bytes()
