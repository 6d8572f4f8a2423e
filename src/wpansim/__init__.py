"""Deterministic 802.15.4 PAN simulator with a mobile node.

Core pieces: integer-microsecond event engine, log-distance link budget,
unslotted CSMA/CA MAC, broadcast/scan handover with LQ-driven transmit
power control, and an experiment harness (run / sweep / calibrate /
compare / gaps).
"""

__version__ = "0.1.0"

from .scenario_file import ScenarioConfig, ScenarioError, load_scenario, parse_scenario
from .sim import RunResult, Simulation

__all__ = [
    "__version__",
    "ScenarioConfig",
    "ScenarioError",
    "load_scenario",
    "parse_scenario",
    "RunResult",
    "Simulation",
]
