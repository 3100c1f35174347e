"""Underwater IoT wake-up toolkit.

Link budgets for the three underwater wake-up technologies (acoustic,
optical, magnetic induction), closed-form node lifetime under no-wake-up
/ duty-cycling / on-demand policies, and a deterministic discrete-event
simulator of the two-stage UAV -> buoy -> node wake-up protocol.
"""

from .acoustic import (
    AcousticLinkParams,
    acoustic_max_range,
    received_power_density_dbm,
    thorp_absorption,
)
from .core import (
    ACOUSTIC,
    MI,
    NEG_INF_DBM,
    OPTICAL,
    TECHNOLOGIES,
    Medium,
    Position3D,
    propagation_delay,
    solve_max_range,
)
from .energy import (
    ACOUSTIC_ENERGY,
    DEFAULT_ENERGY,
    MI_ENERGY,
    OPTICAL_ENERGY,
    EnergyProfile,
    WakePolicy,
    active_charge_ratio,
    average_current,
    lifetime_hours,
)
from .errors import (
    ConfigError,
    DomainError,
    NoSolution,
    ParseError,
    PolicyError,
    ValidationError,
)
from .mi import MiLinkParams, mi_max_range
from .optical import OpticalLinkParams, WaterType, extinction_coefficient, optical_max_range
from .scenario import (
    load_preset,
    parse_scenario,
    parse_scenario_text,
    scenario_to_json,
    serialize_scenario,
)
from .sim import (
    Buoy,
    Node,
    SimConfig,
    SimReport,
    Uav,
    WakeRequest,
    make_node,
    run,
    simulate_lifetime,
)

__version__ = "0.1.0"
