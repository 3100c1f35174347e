"""Magnetic-induction wake-up link: near-field 1/d^6 received power.

The coupled-coil channel is reduced to a calibrated dB gain law

    gain = calibration_gain + 10*log10(Ntx*Nrx*rtx^3*rrx^3*cos^2(beta) / d^6)

which keeps the exact -60 dB/decade distance slope, the cubic coil-radius
dependence, and a cos^2 misalignment projection between coil axes.
Frequency, coil resistance and matching terms are aggregated into the
single calibration constant (resonant coupling assumed); seawater eddy
losses at 75 kHz over <100 m are absorbed there too.
"""

import math
from dataclasses import dataclass
from functools import cached_property
from math import log10

from .core import LIGHT_SPEED_M_S, NEG_INF_DBM, LinkLaw, check_fields, cos_misalignment
from .errors import DomainError

MU0_H_PER_M = 4.0e-7 * math.pi

# Fixed so the reference coil pair (0.5 m radius, 30 turns, 100 mW) reads
# exactly -69 dBm at 44 m with aligned coils:
#   -69 - 10*log10(100) - 10*log10(30*30*0.5^6 / 44^6)
MI_CALIBRATION_GAIN_DB = -1.873464765383119

MAX_RANGE_BRACKET_MAX_M = 1_000.0


@dataclass(frozen=True)
class MiLinkParams(LinkLaw):
    transmit_power_mw: float = 100.0
    frequency_khz: float = 75.0
    permeability_h_per_m: float = MU0_H_PER_M
    turns_tx: int = 30
    turns_rx: int = 30
    coil_radius_tx_m: float = 0.5
    coil_radius_rx_m: float = 0.5
    # Carried for circuit-level refinement; unused by the calibrated gain law.
    unit_coil_resistance_ohm_per_m: float = 0.01
    misalignment_beta_deg: float = 0.0
    calibration_gain_db: float = MI_CALIBRATION_GAIN_DB

    propagation_speed_m_s = LIGHT_SPEED_M_S
    default_sensitivity_dbm = -69.0

    def __post_init__(self):
        check_fields(self, positive=(
            "transmit_power_mw", "frequency_khz", "permeability_h_per_m", "turns_tx",
            "turns_rx", "coil_radius_tx_m", "coil_radius_rx_m", "unit_coil_resistance_ohm_per_m",
        ))
        # A misalignment outside [0, 90] raises here.
        if not self.geometry_db < math.inf:
            raise DomainError(
                "coil factor turns_tx*turns_rx*coil_radius_tx_m^3*coil_radius_rx_m^3 "
                "is beyond the float range"
            )

    @property
    def min_distance_m(self):
        """Dipole approximation is only trusted beyond the coil scale."""
        return max(self.coil_radius_tx_m, self.coil_radius_rx_m)

    @property
    def max_range_bracket_m(self):
        return (self.min_distance_m, MAX_RANGE_BRACKET_MAX_M)

    @property
    def sweep_range_m(self):
        return (self.min_distance_m, 100.0)

    @cached_property
    def geometry_db(self):
        """10*log10 of the coil/misalignment factor (-inf for orthogonal coils,
        +inf when the factor is beyond the float range)."""
        cos_beta = cos_misalignment(self.misalignment_beta_deg)
        try:
            factor = (
                self.turns_tx
                * self.turns_rx
                * self.coil_radius_tx_m**3
                * self.coil_radius_rx_m**3
                * cos_beta
                * cos_beta
            )
        except OverflowError:  # an int turn product or a cube beyond the float range
            return math.inf
        if factor <= 0.0:
            return NEG_INF_DBM
        return 10.0 * log10(factor)

    @cached_property
    def const_db(self):
        """Transmit power, calibration and geometry folded into one dB term."""
        return 10.0 * log10(self.transmit_power_mw) + self.calibration_gain_db + self.geometry_db

    def rx_dbm(self, d):
        """Near-field coupled-coil received power, dBm: a pure 1/d^6 law."""
        return self.const_db - 60.0 * log10(d)


# The link-law methods under this module's names (params passed first).
received_power_dbm = LinkLaw.received_power_dbm
sweep_received_power = LinkLaw.sweep
mi_max_range = LinkLaw.max_range
