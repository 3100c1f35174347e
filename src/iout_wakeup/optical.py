"""Optical wake-up link: received power vs distance, water type, misalignment.

Loss model: Beer-Lambert exponential extinction times a geometric capture
factor.  The beam is a cone of the given half-angle; the receiver
collects aperture_area * cos(beta) out of the beam footprint
pi*(d*tan(half))^2, capped at 1 (it cannot collect more than was sent).

Calibration note: the nominal 0.5 degree transmitter divergence is read
as the full apex angle, so the shipped default half-angle is 0.25
degrees.  Together with clear-ocean water this puts the -53 dBm
sensitivity crossing near 79 m; the half-angle reading would land it
just under 71 m for every standard water type.
"""

import math
from dataclasses import dataclass
from enum import Enum
from math import log10

from .core import LIGHT_SPEED_M_S, NEG_INF_DBM, LinkLaw, check_fields, cos_misalignment, shown
from .errors import DomainError

DB_PER_NEPER = 10.0 / math.log(10.0)  # exp(-c*d) expressed in dB: -DB_PER_NEPER*c*d

MAX_RANGE_BRACKET_M = (0.1, 1_000.0)


class WaterType(str, Enum):
    """Turbidity classes with beam extinction coefficients near 530 nm."""

    PURE_SEA = "pure_sea"
    CLEAR_OCEAN = "clear_ocean"
    COASTAL = "coastal"
    HARBOR = "harbor"


# Standard beam-attenuation constants (1/m); not measured here, adopted as
# overridable defaults.
_EXTINCTION_PER_M = {
    WaterType.PURE_SEA: 0.056,
    WaterType.CLEAR_OCEAN: 0.151,
    WaterType.COASTAL: 0.305,
    WaterType.HARBOR: 2.17,
}


def extinction_coefficient(water: WaterType):
    """Beam extinction coefficient in 1/m for a water turbidity class."""
    try:
        return _EXTINCTION_PER_M[WaterType(water)]
    except ValueError:
        valid = ", ".join(w.value for w in WaterType)
        raise DomainError(f"unknown water type {shown(water)}: expected one of {valid}") from None


@dataclass(frozen=True)
class OpticalLinkParams(LinkLaw):
    transmit_power_mw: float = 250.0
    aperture_area_m2: float = 0.0011            # transmit and receive apertures, equal
    divergence_half_angle_deg: float = 0.25     # 0.5 deg full apex angle
    extinction_per_m: float = _EXTINCTION_PER_M[WaterType.CLEAR_OCEAN]
    misalignment_beta_deg: float = 0.0

    min_distance_m = 0.0
    max_range_bracket_m = MAX_RANGE_BRACKET_M
    sweep_range_m = (0.1, 150.0)
    propagation_speed_m_s = LIGHT_SPEED_M_S
    default_sensitivity_dbm = -53.0

    def __post_init__(self):
        check_fields(self, positive=("transmit_power_mw", "aperture_area_m2"))
        if not 0.0 < self.divergence_half_angle_deg < 90.0:
            raise DomainError(
                f"divergence half-angle must be in (0, 90): {self.divergence_half_angle_deg} deg"
            )
        if self.extinction_per_m < 0.0:
            raise DomainError(f"extinction must be non-negative: {self.extinction_per_m} /m")
        # Derived once, as plain attributes.  A misalignment outside
        # [0, 90] raises here.
        object.__setattr__(self, "ptx_dbm", 10.0 * log10(self.transmit_power_mw))
        object.__setattr__(self, "extinction_db_per_m", DB_PER_NEPER * self.extinction_per_m)
        object.__setattr__(self, "capture_db_1m", self._capture_db_1m())

    def _capture_db_1m(self):
        """Aperture / beam-footprint ratio at 1 m, in dB (-inf at beta = 90)."""
        footprint_1m = math.pi * math.tan(math.radians(self.divergence_half_angle_deg)) ** 2
        capture = self.aperture_area_m2 * cos_misalignment(self.misalignment_beta_deg)
        if capture <= 0.0:
            return NEG_INF_DBM
        if footprint_1m == 0.0:  # a beam too narrow for floats: the 0 dB cap applies
            return math.inf
        ratio = capture / footprint_1m
        return 10.0 * log10(ratio) if ratio > 0.0 else NEG_INF_DBM

    def rx_dbm(self, d):
        """Received optical power, dBm, at a slant range d > 0.

        The geometric gain is capped at 0 dB inside the region where the
        beam is narrower than the aperture.
        """
        g = self.capture_db_1m - 20.0 * log10(d)
        if g > 0.0:
            g = 0.0
        return self.ptx_dbm - self.extinction_db_per_m * d + g


# The link-law methods under this module's names (params passed first).
received_power_dbm = LinkLaw.received_power_dbm
sweep_received_power = LinkLaw.sweep
optical_max_range = LinkLaw.max_range
