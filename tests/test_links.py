"""Properties shared by the three link laws and their registry."""

import math
import sys
from dataclasses import fields

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from iout_wakeup import acoustic, mi, optical
from iout_wakeup.core import NEG_INF_DBM, TECHNOLOGIES, Medium
from iout_wakeup.errors import ConfigError, DomainError, NoSolution
from iout_wakeup.mi import MiLinkParams
from iout_wakeup.optical import OpticalLinkParams
from iout_wakeup.sim import LINK_TYPES, link_fields, make_link


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
    # an int past the float range is refused as inf is, not evaluated
    for bad in (math.inf, -math.inf, 10**400):
        with pytest.raises(DomainError, match="finite"):
            params.received_power_dbm(bad)
        with pytest.raises(DomainError, match="finite"):
            params.sweep(bad, 1.0, 3)
        with pytest.raises(DomainError, match="finite"):
            params.max_range(bad)
    # a negative step: its last point below the law, or still inside it
    for step, n in ((-0.25, 10), (-0.25, 4)):
        with pytest.raises(DomainError, match="step"):
            params.sweep(d0, step, n)
    for step in (math.nan, math.inf, 10**400):
        with pytest.raises(DomainError, match="step"):
            params.sweep(d0, step, 3)
    with pytest.raises(DomainError, match="finite"):  # the last point overflows
        params.sweep(d0, sys.float_info.max, 3)
    assert params.sweep(d0, 0.0, 3) == [params.rx_dbm(d0)] * 3


@pytest.mark.parametrize(
    "n,error",
    [(11, DomainError), (-1, DomainError), (10.0, ConfigError), (True, ConfigError),
     ("3", DomainError), (None, DomainError)],
    ids=["above-max", "negative", "float", "bool", "str", "none"],
)
@pytest.mark.parametrize("cls", LINK_TYPES.values(), ids=lambda c: c.__name__)
def test_sweep_takes_an_int_count_up_to_max_points(cls, n, error, monkeypatch):
    monkeypatch.setattr("iout_wakeup.core.MAX_POINTS", 10)
    params = cls()
    d0 = max(params.min_distance_m, 0.1)
    assert params.sweep(d0, 1.0, 0) == []
    assert len(params.sweep(d0, 1.0, 10)) == 10
    with pytest.raises(error, match="^sweep point count must be"):
        params.sweep(d0, 1.0, n)


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


# ---------------------------------------------------------------------------
# the laws of links built from drawn fields

_FLOATS = st.one_of(
    st.integers(0, 90).map(float),
    st.floats(0.0, 100.0),
    st.floats(allow_nan=False, allow_infinity=False),
)


def _value(kind):
    """A value of a ``link_fields`` type: a float, an int or a water type."""
    if kind is float:
        return _FLOATS
    if kind is int:
        return st.one_of(st.integers(1, 100), st.integers())
    return st.sampled_from(list(kind))


@st.composite
def _links(draw):
    """A link of any technology, each name of ``link_fields`` left out (its
    default) or given a drawn value of its type, the medium's fields of an
    acoustic link too; a draw that does not build is dropped."""
    tech = draw(st.sampled_from(TECHNOLOGIES))
    given = {name: draw(_value(kind)) for name, kind in link_fields(tech).items()
             if draw(st.booleans())}
    try:
        return make_link(tech, **given)
    except (DomainError, ConfigError):
        assume(False)


def _bits(values):
    return [x.hex() for x in values]


@settings(max_examples=300, deadline=None)
@given(_links(), st.data())
def test_rx_does_not_increase_over_the_range_bracket(params, data):
    """The monotone contract the range solver relies on."""
    d_min, d_max = params.max_range_bracket_m
    assume(d_min < d_max)
    distances = sorted(data.draw(st.lists(st.floats(d_min, d_max), min_size=2, max_size=20)))
    rx = [params.rx_dbm(d) for d in distances]
    assert all(near >= far for near, far in zip(rx, rx[1:])), (distances, rx)


@settings(max_examples=300, deadline=None)
@given(_links(), st.data())
def test_a_sweep_is_the_law_at_each_point(params, data):
    d0 = data.draw(st.floats(min_value=params.min_distance_m, max_value=sys.float_info.max,
                             exclude_min=params.min_distance_m == 0.0))
    step = data.draw(st.one_of(st.floats(0.0, 10.0), st.floats(0.0, sys.float_info.max)))
    n = data.draw(st.integers(0, 30))
    try:
        swept = params.sweep(d0, step, n)
    except DomainError:  # its last point is past the float range
        assume(False)
    assert _bits(swept) == _bits(params.rx_dbm(d0 + i * step) for i in range(n))


@settings(max_examples=300, deadline=None)
@given(_links(), st.data())
def test_max_range_finds_the_crossing_or_says_there_is_none(params, data):
    """NoSolution exactly when the bracket's ends do not hold the crossing;
    otherwise a range in the bracket with the sensitivity met one
    tolerance closer and missed one tolerance farther (clipped to the
    bracket)."""
    d_min, d_max = params.max_range_bracket_m
    assume(d_min < d_max)
    rx = params.rx_dbm
    sensitivity = data.draw(st.one_of(st.floats(d_min, d_max).map(rx),
                                      st.floats(allow_nan=False, allow_infinity=False)))
    assume(math.isfinite(sensitivity))
    if rx(d_min) < sensitivity or rx(d_max) >= sensitivity:
        with pytest.raises(NoSolution):
            params.max_range(sensitivity)
        return
    tol = 0.01
    r = params.max_range(sensitivity, tol)
    assert d_min <= r <= d_max
    assert rx(max(r - tol, d_min)) >= sensitivity > rx(min(r + tol, d_max))


@settings(max_examples=300, deadline=None)
@given(_links(), st.one_of(st.floats(), st.floats(0.0, 2.0)))
def test_received_power_is_refused_exactly_where_the_distance_is(params, d):
    try:
        params.check_distance(d)
    except DomainError:
        with pytest.raises(DomainError):
            params.received_power_dbm(d)
    else:
        assert _bits([params.received_power_dbm(d)]) == _bits([params.rx_dbm(d)])
