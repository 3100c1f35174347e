"""Golden outputs, recorded before the link laws moved into their params
classes: the default CLI sweeps and the preset simulations must stay
byte-identical, and the laws themselves bit-identical."""

import hashlib

import pytest

from iout_wakeup import acoustic, mi, optical
from iout_wakeup.cli import main

# tech -> (SHA-256 of `sweep-range --tech <tech> --out f.csv`, its stdout line)
SWEEP_RANGE = {
    "acoustic": (
        "bb186777d4639ea36afddc8d9b798b115647e7bd62cf00346d3cacd9342ae493",
        "max_range_m=252.235",
    ),
    "optical": (
        "69d3ed112b74242e9bfb62b70a5a9bc036411addf70f5e63099a05eaa6809aa8",
        "max_range_m=78.8237",
    ),
    "mi": (
        "27a39a50855ce65c3958b009f891e72ed5113f783dd72c5b719fcb470483b85e",
        "max_range_m=44.0001",
    ),
}

# preset -> SHA-256 of (<out>_events.csv, <out>_summary.csv) from `simulate`
SIMULATE = {
    "acoustic-fig3": (
        "596ee4ec44f4dca2ccc2ae83f70043edb3fd2aefb84acc35cdf89ea7b972300d",
        "f39fdbb598e24b45131ae402a996dd82228a9bf5da3f729d0659fdbcd6e1a32f",
    ),
    "optical-fig4": (
        "b621e5a3aea48d78f6e5cb991787b6153daffd20212437adff346202f7fca4ef",
        "5acde1d32658bbefb3a09f73a50e574612e6ceeb304135ddbc41093d57a176a3",
    ),
    "mi-fig5": (
        "a4b357f69eee18e59da3daca9edeace6e0ee9511f6aafb1b668121cdbbf9b580",
        "7f128b5e38434c8d2897ff3696476a17d7b830d93fdea38331595db4f3448e95",
    ),
}

# The CSVs print six significant digits; these pin every bit of the laws.
# Per technology: the params, the sweep and max-range functions, the sweep start
# and the default sensitivity, then the SHA-256 of repr() of a 1000-point
# sweep with step 0.37 m and repr() of the max range.
EXACT = {
    "acoustic": (
        acoustic.AcousticLinkParams(),
        acoustic.sweep_received_power,
        acoustic.acoustic_max_range,
        1.0, -10.0,
        "4e79b8f55228d7098a6ef2c99f5eacbfbfa8f900a264ab0160c1ef8529f14664",
        "252.23467779159546",
    ),
    "optical": (
        optical.OpticalLinkParams(),
        optical.sweep_received_power,
        optical.optical_max_range,
        0.1, -53.0,
        "978674b83d497c58d931f99a8f323cd4b0267dfe23130a8232f02b4af0665e59",
        "78.82366371154785",
    ),
    "mi": (
        mi.MiLinkParams(),
        mi.sweep_received_power,
        mi.mi_max_range,
        0.5, -69.0,
        "969b4758424ac5b334df1e6d272f05766c3c414c4fb564341dbd683a1979bcb0",
        "44.00012016296387",
    ),
}


def _sha256(path):
    return hashlib.sha256(path.read_bytes()).hexdigest()


@pytest.mark.parametrize("tech", SWEEP_RANGE)
def test_sweep_range_default_outputs(tech, tmp_path, capsys):
    out = tmp_path / f"{tech}.csv"
    assert main(["sweep-range", "--tech", tech, "--out", str(out)]) == 0
    assert (_sha256(out), capsys.readouterr().out.strip()) == SWEEP_RANGE[tech]


@pytest.mark.parametrize("preset", SIMULATE)
def test_simulate_preset_outputs(preset, tmp_path, capsys):
    prefix = tmp_path / preset
    assert main(["simulate", "--scenario", preset, "--out", str(prefix)]) == 0
    digests = (
        _sha256(tmp_path / f"{preset}_events.csv"),
        _sha256(tmp_path / f"{preset}_summary.csv"),
    )
    assert digests == SIMULATE[preset]


@pytest.mark.parametrize("tech", EXACT)
def test_link_law_bits(tech):
    params, sweep, max_range, d0, sensitivity, sweep_sha, range_repr = EXACT[tech]
    powers = sweep(params, d0, 0.37, 1000)
    assert hashlib.sha256(repr(powers).encode()).hexdigest() == sweep_sha
    assert repr(max_range(params, sensitivity)) == range_repr
