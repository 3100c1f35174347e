"""Acoustic wake-up link: received sound power density vs distance and frequency.

Loss model: spreading ``k*log10(d)`` plus Thorp frequency-dependent
absorption.  The received level (dB re 1 uPa) is converted to an
intensity through the plane-wave relation I = p^2 / (rho*c), reported in
dBm re 1 mW/m^2.  With the default 190 dB source level this model puts
the -10 dBm sensitivity crossing near 250 m at 8 kHz and near 180 m at
48 kHz.
"""

from dataclasses import dataclass, field
from math import inf, isfinite, log10

from .core import LinkLaw, Medium, check_fields, is_number, shown
from .errors import DomainError

# Source level is referenced to 1 m from the projector; closer inputs are
# rejected rather than extrapolated.
REFERENCE_DISTANCE_M = 1.0

SPREADING_CYLINDRICAL = 10.0
SPREADING_PRACTICAL = 15.0
SPREADING_SPHERICAL = 20.0
_SPREADING_EXPONENTS = (SPREADING_CYLINDRICAL, SPREADING_PRACTICAL, SPREADING_SPHERICAL)

MAX_RANGE_BRACKET_M = (REFERENCE_DISTANCE_M, 10_000.0)


def thorp_absorption(frequency_khz):
    """Thorp seawater absorption coefficient, dB/km."""
    if not (is_number(frequency_khz) and frequency_khz > 0.0):
        raise DomainError(f"frequency must be positive and finite: {shown(frequency_khz)} kHz")
    f2 = frequency_khz * frequency_khz
    alpha = 0.11 * f2 / (1.0 + f2) + 44.0 * f2 / (4100.0 + f2) + 2.75e-4 * f2 + 0.003
    if not isfinite(alpha):  # 44*f*f overflows to inf, then f*f does (inf/inf)
        raise DomainError(f"absorption beyond the float range at {frequency_khz} kHz")
    return alpha


def intensity_offset_db(medium: Medium):
    """dB offset converting a level re 1 uPa into dBm re 1 mW/m^2.

    p = 10^(RL/20) uPa, I = p^2/(rho*c) W/m^2; in dB the conversion
    collapses to RL - 90 - 10*log10(rho*c).
    """
    impedance = medium.density_kg_m3 * medium.sound_speed_m_s
    if not 0.0 < impedance < inf:  # the product underflowed to 0 or overflowed
        raise DomainError(
            "impedance density_kg_m3*sound_speed_m_s is beyond the float range: "
            f"{medium.density_kg_m3} * {medium.sound_speed_m_s}"
        )
    return -90.0 - 10.0 * log10(impedance)


@dataclass(frozen=True)
class AcousticLinkParams(LinkLaw):
    source_level_db: float = 190.0      # dB re 1 uPa at 1 m
    frequency_khz: float = 8.0
    medium: Medium = field(default_factory=Medium)
    spreading_exponent: float = SPREADING_SPHERICAL

    min_distance_m = REFERENCE_DISTANCE_M
    max_range_bracket_m = MAX_RANGE_BRACKET_M
    sweep_range_m = (REFERENCE_DISTANCE_M, 500.0)
    default_sensitivity_dbm = -10.0     # dBm re 1 mW/m^2

    def __post_init__(self):
        check_fields(self)
        # Derived once, as plain attributes.  A frequency that is not
        # positive, or whose absorption overflows, raises here.
        object.__setattr__(self, "alpha_db_per_km", thorp_absorption(self.frequency_khz))
        object.__setattr__(self, "offset_db", intensity_offset_db(self.medium))
        if self.spreading_exponent not in _SPREADING_EXPONENTS:
            raise DomainError(
                f"spreading exponent must be one of {_SPREADING_EXPONENTS}: "
                f"{self.spreading_exponent}"
            )

    @property
    def propagation_speed_m_s(self):
        """Sound travels at the speed of the medium it runs in."""
        return self.medium.sound_speed_m_s

    def transmission_loss_db(self, d):
        """Spreading plus absorption loss, dB, at a range d >= 1 m."""
        return self.spreading_exponent * log10(d) + self.alpha_db_per_km * d / 1000.0

    def rx_dbm(self, d):
        """Received sound power density, dBm re 1 mW/m^2, at a range d >= 1 m."""
        return self.source_level_db - self.transmission_loss_db(d) + self.offset_db


# The link-law methods under this module's names (params passed first).
received_power_density_dbm = LinkLaw.received_power_dbm
sweep_received_power = LinkLaw.sweep
acoustic_max_range = LinkLaw.max_range
