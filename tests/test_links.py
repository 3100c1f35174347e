"""Properties shared by the three link laws and their registry."""

import math
import sys
from dataclasses import fields

import pytest

from iout_wakeup import acoustic, mi, optical
from iout_wakeup.core import NEG_INF_DBM, Medium
from iout_wakeup.errors import DomainError
from iout_wakeup.mi import MiLinkParams
from iout_wakeup.optical import OpticalLinkParams
from iout_wakeup.sim import LINK_TYPES


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("cls", [*LINK_TYPES.values(), Medium], ids=lambda c: c.__name__)
def test_non_finite_field_rejected(cls, value):
    for f in fields(cls):
        if f.type is float:
            with pytest.raises(DomainError, match=f.name):
                cls(**{f.name: value})


def test_int_field_beyond_float_range_rejected():
    with pytest.raises(DomainError, match="turns_tx must be finite"):
        LINK_TYPES["mi"](turns_tx=10**400)


@pytest.mark.parametrize("cls", LINK_TYPES.values(), ids=lambda c: c.__name__)
def test_distance_below_the_law_rejected(cls):
    params = cls()
    for bad in (params.min_distance_m * 0.5, 0.0, -1.0, math.nan):
        with pytest.raises(DomainError):
            params.sweep(bad, 1.0, 3)
        with pytest.raises(DomainError):
            params.received_power_dbm(bad)


@pytest.mark.parametrize("cls", LINK_TYPES.values(), ids=lambda c: c.__name__)
def test_what_a_law_cannot_evaluate_rejected(cls):
    # a lossless optical link evaluates to NaN at an infinite distance
    params = cls(**{"extinction_per_m": 0.0} if cls is OpticalLinkParams else {})
    d0 = params.min_distance_m + 1.5
    for bad in (math.inf, -math.inf):
        with pytest.raises(DomainError, match="finite"):
            params.received_power_dbm(bad)
        with pytest.raises(DomainError, match="finite"):
            params.sweep(bad, 1.0, 3)
    # a negative step: its last point below the law, or still inside it
    for step, n in ((-0.25, 10), (-0.25, 4)):
        with pytest.raises(DomainError, match="step"):
            params.sweep(d0, step, n)
    for step in (math.nan, math.inf):
        with pytest.raises(DomainError, match="step"):
            params.sweep(d0, step, 3)
    with pytest.raises(DomainError, match="finite"):  # the last point overflows
        params.sweep(d0, sys.float_info.max, 3)
    assert params.sweep(d0, 0.0, 3) == [params.rx_dbm(d0)] * 3


@pytest.mark.parametrize(
    "tech,rx,sweep,max_range",
    [
        ("acoustic", acoustic.received_power_density_dbm, acoustic.sweep_received_power,
         acoustic.acoustic_max_range),
        ("optical", optical.received_power_dbm, optical.sweep_received_power,
         optical.optical_max_range),
        ("mi", mi.received_power_dbm, mi.sweep_received_power, mi.mi_max_range),
    ],
    ids=["acoustic", "optical", "mi"],
)
def test_module_names_return_what_the_link_methods_return(tech, rx, sweep, max_range):
    params = LINK_TYPES[tech]()
    d0 = max(params.min_distance_m, 0.1)
    for d in (d0, 1.0, 20.0, 44.0, 300.0):
        assert rx(params, d) == params.received_power_dbm(d) == params.rx_dbm(d)
    assert sweep(params, d0, 0.37, 50) == params.sweep(d0, 0.37, 50)
    sensitivity = params.default_sensitivity_dbm
    assert max_range(params, sensitivity) == params.max_range(sensitivity)
    assert max_range(params, sensitivity, tol_m=1e-4) == params.max_range(sensitivity, 1e-4)


@pytest.mark.parametrize("cls", [OpticalLinkParams, MiLinkParams], ids=lambda c: c.__name__)
def test_both_misalignment_laws_apply_one_rule(cls):
    for beta in (-1e-9, 90.000001, -math.inf):
        with pytest.raises(DomainError, match="misalignment"):
            cls(misalignment_beta_deg=beta)
    aligned, zero = cls(), cls(misalignment_beta_deg=0.0)
    orthogonal = cls(misalignment_beta_deg=90.0)
    assert zero == aligned
    for d in (max(aligned.min_distance_m, 1e-3), 1.0, 44.0, 1e4, 1e300):
        assert orthogonal.sweep(d, 1.0, 1) == [NEG_INF_DBM]
        assert zero.sweep(d, 1.0, 1) == aligned.sweep(d, 1.0, 1)
